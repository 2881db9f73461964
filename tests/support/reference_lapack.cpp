#include "support/reference_lapack.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "dense/util.hpp"

namespace ptlr::testing {

using dense::ConstMatrixView;
using dense::dot;
using dense::Matrix;
using dense::nrm2;
using dense::scal;

void ormqr(dense::Trans trans, ConstMatrixView a,
           const std::vector<double>& tau, dense::MatrixView c) {
  const int m = c.rows();
  const int k = static_cast<int>(tau.size());
  PTLR_CHECK(a.rows() == m, "ormqr: Q/C row mismatch");
  // H_j = I - tau_j·v·vᵀ with v = [1; a(j+1:m, j)], applied to rows j:m.
  const auto apply = [&](int j) {
    if (tau[j] == 0.0) return;
    const double* v = a.col(j) + j + 1;
    for (int col = 0; col < c.cols(); ++col) {
      double* cj = c.col(col) + j;
      const double w = cj[0] + dense::dot(m - j - 1, v, cj + 1);
      cj[0] -= tau[j] * w;
      dense::axpy(m - j - 1, -tau[j] * w, v, cj + 1);
    }
  };
  if (trans == dense::Trans::T) {
    // Q^T = H_{k-1} ... H_1 H_0 applied left-to-right.
    for (int j = 0; j < k; ++j) apply(j);
  } else {
    for (int j = k - 1; j >= 0; --j) apply(j);
  }
}

namespace {

// Plane rotation of a column pair: (x, y) <- (cs*x - sn*y, sn*x + cs*y).
// The two columns never alias, so the loop vectorizes without a runtime
// overlap check.
void rotate(int n, double cs, double sn, double* __restrict x,
            double* __restrict y) {
  for (int i = 0; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = cs * xi - sn * yi;
    y[i] = sn * xi + cs * yi;
  }
}

}  // namespace

// One-sided Jacobi SVD (Hestenes). Rotations are applied to column pairs of
// a working copy of A until all pairs are numerically orthogonal; singular
// values are the resulting column norms. Robust and accurate to the last
// digits at tile scale; asymptotically slower than bidiagonalization, which
// does not matter there. The rotations are not accumulated: every caller
// needs only the leading left singular vectors (reference_lapack.hpp).
//
// The squared column norms are cached, so a pair costs one dot product
// (apq) instead of three. They are recomputed exactly at the start of every
// sweep; a rotation updates its two as app - t*apq and aqq + t*apq, and an
// update that cancels below sqrt(eps) of the old value is recomputed
// exactly instead (LAPACK dgesvj practice). A sweep without rotations — the
// one that ends the iteration — therefore tests exact norms.
Svd jacobi_svd(ConstMatrixView a) {
  PTLR_CHECK(a.rows() >= a.cols(),
             "jacobi_svd requires rows >= cols; transpose the input");
  const int m = a.rows(), n = a.cols();
  Svd out;
  out.u = dense::to_matrix(a);
  out.s.assign(n, 0.0);
  if (n == 0) return out;

  Matrix& w = out.u;
  constexpr int kMaxSweeps = 42;
  const double eps = 1e-15;
  const double sqrt_eps = std::sqrt(eps);

  auto wcol = [&](int j) { return w.data() + static_cast<std::size_t>(j) * m; };
  std::vector<double> norms2(n);
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    for (int j = 0; j < n; ++j) norms2[j] = dot(m, wcol(j), wcol(j));
    bool rotated = false;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        double* wp = wcol(p);
        double* wq = wcol(q);
        const double app = norms2[p];
        const double aqq = norms2[q];
        const double apq = dot(m, wp, wq);
        if (std::abs(apq) <= eps * std::sqrt(app * aqq)) continue;
        rotated = true;
        // Two-sided rotation parameters that annihilate apq.
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t =
            std::copysign(1.0, zeta) /
            (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double cs = 1.0 / std::sqrt(1.0 + t * t);
        const double sn = cs * t;
        rotate(m, cs, sn, wp, wq);
        const double npp = app - t * apq;
        const double nqq = aqq + t * apq;
        norms2[p] = npp < sqrt_eps * app ? dot(m, wp, wp) : npp;
        norms2[q] = nqq < sqrt_eps * aqq ? dot(m, wq, wq) : nqq;
      }
    }
    if (!rotated) break;
  }

  // Column norms are the singular values; normalize U's columns.
  for (int j = 0; j < n; ++j) {
    double* wj = w.data() + static_cast<std::size_t>(j) * m;
    const double sj = nrm2(m, wj);
    out.s[j] = sj;
    if (sj > 0.0) scal(m, 1.0 / sj, wj);
  }

  // Sort descending.
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](int x, int y) { return out.s[x] > out.s[y]; });
  Matrix us(m, n);
  std::vector<double> ss(n);
  for (int j = 0; j < n; ++j) {
    ss[j] = out.s[perm[j]];
    std::copy_n(w.data() + static_cast<std::size_t>(perm[j]) * m, m,
                us.data() + static_cast<std::size_t>(j) * m);
  }
  out.u = std::move(us);
  out.s = std::move(ss);
  return out;
}

std::vector<double> singular_values(ConstMatrixView a) {
  if (a.rows() >= a.cols()) return jacobi_svd(a).s;
  // Transpose into owning storage and decompose that instead.
  Matrix at(a.cols(), a.rows());
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i) at(j, i) = a(i, j);
  return jacobi_svd(at.view()).s;
}

}  // namespace ptlr::testing
