#include <cmath>

#include "common/flops.hpp"
#include "dense/gemm_kernel.hpp"
#include "dense/lapack.hpp"
#include "dense/unblocked.hpp"

namespace ptlr::dense {

namespace {

// The DPOTF2 loops. potrf_rec calls this internal copy, which the compiler
// inlines there; the exported potf2 forwards to it. Called out of line, the
// n = 64 leaf measured ~20% slower (GCC 12, AVX-512).
void potf2_lower(MatrixView a, int base) {
  const int n = a.rows();
  for (int j = 0; j < n; ++j) {
    double d = a(j, j);
    for (int p = 0; p < j; ++p) d -= a(j, p) * a(j, p);
    if (d <= 0.0 || !std::isfinite(d)) {
      throw NumericalError("potrf: matrix is not positive definite",
                           base + j + 1);
    }
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    for (int i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (int p = 0; p < j; ++p) s -= a(i, p) * a(j, p);
      a(i, j) = s / ljj;
    }
  }
}

// Recursive Cholesky: factor the leading half, solve the off-diagonal
// panel with one fat TRSM, downdate the trailing half with one SYRK, and
// recurse. TRSM/SYRK delegate their O(n^3) volume to the blocked GEMM
// engine, so the scalar potf2 fraction decays like kOuterNB / n. The
// BLAS-3 calls charge their own flop models; subtract them so potrf's
// total stays exactly flops::potrf(n).
//
// Nested parallelism arrives through those same entry points: when this
// runs inside a ws-engine task, the public trsm/syrk below chunk their
// right-hand sides / row-blocks into child tasks (runtime/nested.hpp)
// above the volume cutoff, so the O(n^3) panel and downdate volume — all
// of this routine except the O(n * kOuterNB^2) potf2 leaves on the
// critical path — runs on every worker while the factorization's task
// span stays a single graph task. Recursing here instead of spawning
// keeps the factor bitwise identical to the serial evaluation: the
// recursion order (and therefore every summation order) is unchanged,
// only the independent rhs/row chunks inside each BLAS-3 call move.
void potrf_rec(MatrixView a, int base) {
  const int n = a.rows();
  if (n <= detail::kOuterNB) {
    potf2_lower(a, base);
    return;
  }
  const int n1 = n / 2, n2 = n - n1;
  auto a11 = a.block(0, 0, n1, n1);
  auto a22 = a.block(n1, n1, n2, n2);
  auto panel = a.block(n1, 0, n2, n1);
  potrf_rec(a11, base);
  flops::Counter::add(-flops::trsm(n1, n2));
  trsm(Side::Right, Uplo::Lower, Trans::T, Diag::NonUnit, 1.0, a11, panel);
  flops::Counter::add(-flops::syrk(n2, n1));
  syrk(Uplo::Lower, Trans::N, -1.0, panel, 1.0, a22);
  potrf_rec(a22, base + n1);
}

}  // namespace

void potf2(MatrixView a, int base) { potf2_lower(a, base); }

void potrf(Uplo, MatrixView a) {
  PTLR_CHECK(a.rows() == a.cols(), "potrf needs a square matrix");
  flops::Counter::add(flops::potrf(a.rows()));
  potrf_rec(a, 0);
}

}  // namespace ptlr::dense
