#include "compress/compress.hpp"

#include <algorithm>
#include <cmath>

#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"

namespace ptlr::compress {

using dense::Matrix;
using dense::Trans;

Matrix LowRankFactor::to_dense() const {
  Matrix out(rows(), cols());
  if (rank() > 0)
    dense::gemm(Trans::N, Trans::T, 1.0, u.view(), v.view(), 0.0, out.view());
  return out;
}

int truncation_rank(const std::vector<double>& s, double tol) {
  double tail2 = 0.0;
  int k = static_cast<int>(s.size());
  while (k > 0) {
    const double cand = tail2 + s[k - 1] * s[k - 1];
    if (std::sqrt(cand) > tol) break;
    tail2 = cand;
    --k;
  }
  return k;
}

LowRankFactor truncated_factor(dense::ConstMatrixView q,
                               dense::ConstMatrixView x,
                               const dense::Matrix& z, int k) {
  const int m = q.rows(), n = x.rows(), r = x.cols();
  Matrix u(m, k), v(n, k);
  if (k > 0) {
    Matrix ws(r, k);  // Xᵀ·Z_k = W_k·S_k
    dense::gemm(Trans::T, Trans::N, 1.0, x, z.block(0, 0, n, k), 0.0,
                ws.view());
    dense::gemm(Trans::N, Trans::N, 1.0, q, ws.view(), 0.0, u.view());
    dense::copy(z.block(0, 0, n, k), v.view());
  }
  return LowRankFactor{std::move(u), std::move(v)};
}

std::optional<LowRankFactor> compress(dense::ConstMatrixView a,
                                      const Accuracy& acc) {
  PTLR_CHECK(dense::all_finite(a), "compress: non-finite input block");
  const int m = a.rows(), n = a.cols();
  const int cap = std::min({m, n, acc.maxrank});
  Matrix w = dense::to_matrix(a);
  // Leave slack below the target so the SVD polish decides the final rank.
  auto piv = dense::geqp3_trunc(w.view(), acc.tol * 0.5, cap);
  if (piv.rank == cap && piv.tail_frob > acc.tol * 0.5 && cap < std::min(m, n)) {
    return std::nullopt;  // rank exceeds the admissible maximum: stay dense
  }
  const int kq = piv.rank;
  if (kq == 0) {
    // Numerically zero block: the canonical rank-0 factor.
    return LowRankFactor{Matrix(m, 0), Matrix(n, 0)};
  }

  // A = Q * (R P^T); put B = P R^T (n-by-kq) and decompose it. R is the
  // kq-by-n upper-trapezoid of the factored copy, column j belonging to
  // original column jpvt[j].
  Matrix b(n, kq);
  for (int j = 0; j < n; ++j) {
    const int orig = piv.jpvt[j];
    const int rows_in_col = std::min(j + 1, kq);
    for (int i = 0; i < rows_in_col; ++i) b(orig, i) = w(i, j);
  }
  const dense::Svd svd = dense::jacobi_svd(b.view());

  // The polish gets the budget the CPQR tail left, so the two truncations
  // together meet ‖A − UVᵀ‖²_F = tail² + dropped² ≤ tol².
  const double budget = std::sqrt(std::max(
      0.0, acc.tol * acc.tol - piv.tail_frob * piv.tail_frob));
  const int k = truncation_rank(svd.s, budget);
  if (k > acc.maxrank) return std::nullopt;

  // B is read out, so Q can be formed over the reflectors in place.
  dense::orgqr(w.view(), piv.tau, kq);
  return truncated_factor(w.block(0, 0, m, kq), b.view(), svd.u, k);
}

int numerical_rank(dense::ConstMatrixView a, const Accuracy& acc) {
  Accuracy unlimited = acc;
  unlimited.maxrank = std::min(a.rows(), a.cols());
  auto f = compress(a, unlimited);
  return f ? f->rank() : unlimited.maxrank;
}

int recompress(LowRankFactor& f, const Accuracy& acc) {
  const int k = f.rank();
  if (k == 0) return 0;
  const int m = f.rows(), n = f.cols();

  // Thin QRs of both factors. If k exceeds a dimension the factor is
  // already rank-limited by that dimension; handle via padded copies.
  const int ku = std::min(m, k), kv = std::min(n, k);
  Matrix qu = f.u, qv = f.v;
  std::vector<double> tau_u, tau_v;
  dense::geqrf(qu.view(), tau_u);
  dense::geqrf(qv.view(), tau_v);
  Matrix ru(ku, k), rv(kv, k);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i <= std::min(j, ku - 1); ++i) ru(i, j) = qu(i, j);
    for (int i = 0; i <= std::min(j, kv - 1); ++i) rv(i, j) = qv(i, j);
  }
  // Core matrix M = Ru * Rv^T (ku-by-kv); A = Qu M Qv^T.
  Matrix core(ku, kv);
  dense::gemm(Trans::N, Trans::T, 1.0, ru.view(), rv.view(), 0.0,
              core.view());
  // Round the core exactly as compress() rounds a dense block: CPQR to
  // tol/2 discovers the rank, and only the kept columns are SVD-polished,
  // instead of a Jacobi SVD of the whole (mostly discarded) core. Qu and
  // Qv are orthonormal, so the core's error bound is the factor's.
  Accuracy core_acc = acc;
  core_acc.maxrank = std::min(ku, kv);  // cannot exceed: never nullopt
  const std::optional<LowRankFactor> mc = compress(core.view(), core_acc);
  const int knew = mc->rank();
  if (knew >= k) return k;  // no reduction; keep the existing factor

  // Unew = Qu * Um (Um carries the singular values); Vnew = Qv * Vm.
  dense::orgqr(qu.view(), tau_u, ku);
  dense::orgqr(qv.view(), tau_v, kv);
  Matrix unew(m, knew), vnew(n, knew);
  if (knew > 0) {
    dense::gemm(Trans::N, Trans::N, 1.0, qu.block(0, 0, m, ku),
                mc->u.view(), 0.0, unew.view());
    dense::gemm(Trans::N, Trans::N, 1.0, qv.block(0, 0, n, kv),
                mc->v.view(), 0.0, vnew.view());
  }
  f.u = std::move(unew);
  f.v = std::move(vnew);
  return knew;
}

double approximation_error(dense::ConstMatrixView a, const LowRankFactor& f) {
  Matrix rec = f.to_dense();
  return dense::frob_diff(a, rec.view());
}

}  // namespace ptlr::compress
