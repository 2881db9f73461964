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

std::optional<LowRankFactor> compress(dense::ConstMatrixView a,
                                      const Accuracy& acc) {
  PTLR_CHECK(dense::all_finite(a), "compress: non-finite input block");
  const int m = a.rows(), n = a.cols();
  const int cap = std::min({m, n, acc.maxrank});
  Matrix w = dense::to_matrix(a);
  auto piv = dense::geqp3_trunc(w.view(), acc.tol, cap);
  if (piv.rank == cap && piv.tail_frob > acc.tol && cap < std::min(m, n)) {
    return std::nullopt;  // rank exceeds the admissible maximum: stay dense
  }
  const int k = piv.rank;

  // A·P = Q·R with the trailing block's Frobenius norm (the tail) ≤ tol, so
  // U = Q(:, :k) and V = P·R(:k, :)ᵀ = Aᵀ·U leave exactly the tail:
  // ‖A − U·Vᵀ‖_F = ‖(I − U·Uᵀ)·A‖_F ≤ tol. R is the k-by-n upper trapezoid
  // of the factored copy, column j belonging to original column jpvt[j].
  Matrix v(n, k);
  for (int j = 0; j < n; ++j) {
    const int orig = piv.jpvt[j];
    const int rows_in_col = std::min(j + 1, k);
    for (int i = 0; i < rows_in_col; ++i) v(orig, i) = w(i, j);
  }
  // R is read out, so Q can be formed over the reflectors in place.
  dense::orgqr(w.view(), piv.tau, k);
  return LowRankFactor{dense::to_matrix(w.block(0, 0, m, k)), std::move(v)};
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
  // Round the core exactly as compress() rounds a dense block, by a CPQR
  // truncated at tol. Qu and Qv are orthonormal, so the core's error bound
  // is the factor's.
  Accuracy core_acc = acc;
  core_acc.maxrank = std::min(ku, kv);  // cannot exceed: never nullopt
  const std::optional<LowRankFactor> mc = compress(core.view(), core_acc);
  const int knew = mc->rank();
  if (knew >= k) return k;  // no reduction; keep the existing factor

  // Unew = Qu * Um (orthonormal, as Um is); Vnew = Qv * Vm.
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
