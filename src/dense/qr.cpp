#include <algorithm>
#include <cmath>

#include "common/flops.hpp"
#include "dense/lapack.hpp"

namespace ptlr::dense {

namespace {

// Generate an elementary Householder reflector H = I - tau*v*v^T with
// v(0) = 1 implicit, such that H * [alpha; x] = [beta; 0]. On exit x holds
// the reflector tail and alpha the value beta. (Reference DLARFG.)
double larfg(double& alpha, int n, double* x) {
  const double xnorm = nrm2(n, x);
  if (xnorm == 0.0) return 0.0;
  const double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  const double tau = (beta - alpha) / beta;
  scal(n, 1.0 / (alpha - beta), x);
  alpha = beta;
  return tau;
}

// Apply H = I - tau*v*v^T (v(0)=1 implicit, tail `v` of length n-1) from the
// left to the n-by-k block whose first row is `c0` with leading dim ld.
void larf_left(int n, int k, const double* v, double tau, double* c0, int ld) {
  if (tau == 0.0) return;
  for (int j = 0; j < k; ++j) {
    double* c = c0 + static_cast<std::size_t>(j) * ld;
    const double w = c[0] + dot(n - 1, v, c + 1);
    c[0] -= tau * w;
    axpy(n - 1, -tau * w, v, c + 1);
  }
}

}  // namespace

void geqrf(MatrixView a, std::vector<double>& tau) {
  const int m = a.rows(), n = a.cols();
  const int k = std::min(m, n);
  tau.assign(k, 0.0);
  flops::Counter::add(2.0 * n * n * (static_cast<double>(m) - n / 3.0));
  for (int j = 0; j < k; ++j) {
    double* col = a.col(j) + j;
    tau[j] = larfg(col[0], m - j - 1, col + 1);
    if (j + 1 < n) {
      larf_left(m - j, n - j - 1, col + 1, tau[j], a.col(j + 1) + j, a.ld());
    }
  }
}

void orgqr(MatrixView a, const std::vector<double>& tau, int k) {
  const int m = a.rows();
  PTLR_CHECK(k <= a.cols() && k <= static_cast<int>(tau.size()),
             "orgqr: k exceeds stored reflectors");
  flops::Counter::add(2.0 * m * k * k);
  for (int j = k - 1; j >= 0; --j) {
    double* vj = a.col(j) + j + 1;  // reflector tail below the diagonal
    if (j + 1 < k) {
      larf_left(m - j, k - j - 1, vj, tau[j], a.col(j + 1) + j, a.ld());
    }
    // Column j becomes H_j * e_j.
    for (int i = 0; i < j; ++i) a(i, j) = 0.0;
    a(j, j) = 1.0 - tau[j];
    scal(m - j - 1, -tau[j], vj);
  }
}

PivotedQr geqp3_trunc(MatrixView a, double tol, int maxrank) {
  const int m = a.rows(), n = a.cols();
  const int kmax = std::min({m, n, maxrank});
  PivotedQr out;
  out.jpvt.resize(n);
  for (int j = 0; j < n; ++j) out.jpvt[j] = j;

  // Squared trailing column norms, downdated each step and recomputed when
  // cancellation would make the downdate unreliable (LAPACK-style).
  std::vector<double> norms2(n), norms2_ref(n);
  for (int j = 0; j < n; ++j) {
    const double nj = nrm2(m, a.col(j));
    norms2[j] = norms2_ref[j] = nj * nj;
  }
  const double tol2 = tol * tol;

  for (int j = 0; j < kmax; ++j) {
    // Residual Frobenius mass of the not-yet-factored part.
    double tail = 0.0;
    int pmax = j;
    for (int p = j; p < n; ++p) {
      tail += norms2[p];
      if (norms2[p] > norms2[pmax]) pmax = p;
    }
    if (tail <= tol2) {
      out.rank = j;
      out.tail_frob = std::sqrt(std::max(tail, 0.0));
      return out;
    }
    if (pmax != j) {
      // Swap full columns so the factored part stays consistent.
      for (int i = 0; i < m; ++i) std::swap(a(i, j), a(i, pmax));
      std::swap(norms2[j], norms2[pmax]);
      std::swap(norms2_ref[j], norms2_ref[pmax]);
      std::swap(out.jpvt[j], out.jpvt[pmax]);
    }
    double* col = a.col(j) + j;
    out.tau.push_back(larfg(col[0], m - j - 1, col + 1));
    flops::Counter::add(4.0 * (m - j) * (n - j));
    if (j + 1 < n) {
      larf_left(m - j, n - j - 1, col + 1, out.tau.back(), a.col(j + 1) + j,
                a.ld());
    }
    for (int p = j + 1; p < n; ++p) {
      const double r = a(j, p);
      norms2[p] -= r * r;
      // Recompute exactly when the downdated value lost too much accuracy.
      if (norms2[p] < 1e-12 * norms2_ref[p] || norms2[p] < 0.0) {
        const double np = nrm2(m - j - 1, a.col(p) + j + 1);
        norms2[p] = np * np;
        norms2_ref[p] = norms2[p];
      }
    }
  }
  out.rank = kmax;
  double tail = 0.0;
  for (int p = kmax; p < n; ++p) tail += norms2[p];
  out.tail_frob = std::sqrt(std::max(tail, 0.0));
  return out;
}

}  // namespace ptlr::dense
