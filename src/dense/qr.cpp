#include <algorithm>
#include <cmath>

#include "common/flops.hpp"
#include "dense/gemm_kernel.hpp"
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

using detail::kVecLen;
using detail::vec_d;

// Columns larf_left applies per pass over the reflector.
constexpr int kCols = 4;

vec_d load(const double* p) {
  vec_d x;
  __builtin_memcpy(&x, p, sizeof x);
  return x;
}

// One pass over the `full` leading rows (whole vectors) of the reflector
// tail v: the axpys c += alpha·v of the first `live` columns of `ax`
// (kAxpy) and the lane sums acc += v·c of the columns `dt` (kDot), one
// load of v feeding both. Pointers are to row 1 of each column, the first
// row v covers.
template <bool kAxpy, bool kDot>
void apply_pass(int full, const double* v, double* const* ax,
                const double* alpha, int live, double* const* dt,
                vec_d* acc) {
  for (int i = 0; i < full; i += kVecLen) {
    const vec_d vi = load(v + i);
    for (int q = 0; q < kCols; ++q) {
      if constexpr (kAxpy) {
        vec_d ci = load(ax[q] + i);
        ci += alpha[q] * vi;
        if (q < live) __builtin_memcpy(ax[q] + i, &ci, sizeof ci);
      }
      if constexpr (kDot) acc[q] += vi * load(dt[q] + i);
    }
  }
}

// Apply H = I - tau*v*v^T (v(0)=1 implicit, tail `v` of length n-1) from the
// left to the n-by-k block whose first row is `c0` with leading dim ld.
//
// The columns go four per pass in vectors of eight, and group g's axpys
// share a pass over v with group g+1's dots: one load of v feeds both, and
// the dot chains overlap the axpy stores. Each column runs dot's and
// axpy's sequence: eight lane sums of v(i)*c(i) over whole vectors,
// combined pairwise, then the leftover rows in order, then
// c += (-tau*w)*v. A partial last group repeats its last column in the
// missing lanes and stores only the live ones, so every column runs the
// same instructions and its bits do not depend on where it sits in the
// block.
void larf_left(int n, int k, const double* v, double tau, double* c0,
               int ld) {
  if (tau == 0.0 || k == 0) return;
  const int len = n - 1;  // rows below the implicit v(0) = 1
  const int full = len - len % kVecLen;
  const int groups = (k + kCols - 1) / kCols;
  // Row-1 pointers of group g's columns; returns how many are live.
  const auto group = [&](int g, double** c) {
    for (int q = 0; q < kCols; ++q) {
      const int j = std::min(g * kCols + q, k - 1);
      c[q] = c0 + static_cast<std::size_t>(j) * ld + 1;
    }
    return std::min(kCols, k - g * kCols);
  };
  // Close a group's dots from its lane sums: w, row 0's update and alpha.
  const auto finish = [&](double* const* c, int live, const vec_d* acc,
                          double* alpha) {
    double s[kCols];
    for (int q = 0; q < kCols; ++q) {
      const vec_d& p = acc[q];
      s[q] = ((p[0] + p[1]) + (p[2] + p[3])) +
             ((p[4] + p[5]) + (p[6] + p[7]));
    }
    for (int i = full; i < len; ++i)
      for (int q = 0; q < kCols; ++q) s[q] += v[i] * c[q][i];
    for (int q = 0; q < kCols; ++q) {
      const double w = c[q][-1] + s[q];
      alpha[q] = -tau * w;
      if (q < live) c[q][-1] -= tau * w;
    }
  };
  double* cur[kCols];
  double* next[kCols];
  double alpha[kCols];
  vec_d acc[kCols] = {};
  int live = group(0, cur);
  apply_pass<false, true>(full, v, nullptr, nullptr, 0, cur, acc);
  finish(cur, live, acc, alpha);
  for (int g = 0; g < groups; ++g) {
    const bool last = g + 1 == groups;
    int next_live = 0;
    if (last) {
      apply_pass<true, false>(full, v, cur, alpha, live, nullptr, nullptr);
    } else {
      next_live = group(g + 1, next);
      for (vec_d& a : acc) a = vec_d{};
      apply_pass<true, true>(full, v, cur, alpha, live, next, acc);
    }
    for (int q = 0; q < live; ++q)
      for (int i = full; i < len; ++i) cur[q][i] += alpha[q] * v[i];
    if (last) break;
    finish(next, next_live, acc, alpha);
    std::copy_n(next, kCols, cur);
    live = next_live;
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
