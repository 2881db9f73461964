#include "compress/methods.hpp"

#include <algorithm>
#include <cmath>

#include "compress/adaptive.hpp"
#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"

namespace ptlr::compress {

using dense::Matrix;
using dense::Trans;

const char* to_string(Method m) {
  switch (m) {
    case Method::kCpqrSvd: return "CPQR+SVD";
    case Method::kRsvd: return "RSVD";
    case Method::kAca: return "ACA";
    case Method::kAdaptiveRsvd: return "ADAPTIVE-RSVD";
  }
  return "unknown";
}

namespace {

// Fraction of tol the dense-block ACA drives its exact residual to; the
// recompression rounds within the rest. 0.1 leaves it 0.9·tol, so the
// final rank stays within a column or two of CPQR+SVD's minimal rank.
constexpr double kAcaShare = 0.1;

// One fixed-width randomized sketch pass; returns nullopt when the sketch
// width l was too small to certify the tolerance (its range residual leaves
// no budget, or the rank did not converge inside the sketch).
std::optional<LowRankFactor> rsvd_fixed(dense::ConstMatrixView a,
                                        const Accuracy& acc, Rng& rng,
                                        int l, int oversample,
                                        int power_iters) {
  const int m = a.rows(), n = a.cols();
  if (l == 0) return LowRankFactor{Matrix(m, 0), Matrix(n, 0)};

  // Sketch: Y = A * Omega, with optional power iterations (A A^T)^q A Omega
  // re-orthonormalized between applications for numerical stability.
  Matrix omega(n, l);
  dense::fill_gaussian(omega.view(), rng);
  Matrix y(m, l);
  dense::gemm(Trans::N, Trans::N, 1.0, a, omega.view(), 0.0, y.view());
  std::vector<double> tau;
  for (int q = 0; q < power_iters; ++q) {
    dense::geqrf(y.view(), tau);
    dense::orgqr(y.view(), tau, l);
    Matrix z(n, l);
    dense::gemm(Trans::T, Trans::N, 1.0, a, y.view(), 0.0, z.view());
    dense::geqrf(z.view(), tau);
    dense::orgqr(z.view(), tau, l);
    dense::gemm(Trans::N, Trans::N, 1.0, a, z.view(), 0.0, y.view());
  }
  dense::geqrf(y.view(), tau);
  dense::orgqr(y.view(), tau, l);

  // B = Q^T A (l-by-n), decomposed through its tall transpose B^T.
  Matrix bt(n, l);
  dense::gemm(Trans::T, Trans::N, 1.0, a, y.view(), 0.0, bt.view());

  // The sketch's range residual ‖A − Q·B‖_F, exactly: A is dense, so it
  // costs one GEMM. It is orthogonal to the truncation error of Q·B, so
  // the truncation gets only what it leaves of tol.
  const bool full = l == std::min(m, n);
  Matrix res = dense::to_matrix(a);
  dense::gemm(Trans::N, Trans::T, -1.0, y.view(), bt.view(), 1.0,
              res.view());
  const double range = dense::frob_norm(res.view());
  if (range >= acc.tol && !full) return std::nullopt;
  const double budget =
      std::sqrt(std::max(0.0, acc.tol * acc.tol - range * range));

  const dense::Svd svd = dense::jacobi_svd(bt.view());
  const int k = truncation_rank(svd.s, budget);
  // Not converged inside the sketch (no slack columns left below the
  // threshold) and the sketch was not already the full width.
  if (k > l - oversample / 2 && !full) return std::nullopt;
  return truncated_factor(y.view(), bt.view(), svd.u, k);
}

}  // namespace

std::optional<LowRankFactor> compress_rsvd(dense::ConstMatrixView a,
                                           const Accuracy& acc, Rng& rng,
                                           int oversample, int power_iters) {
  PTLR_CHECK(dense::all_finite(a), "compress_rsvd: non-finite input block");
  const int m = a.rows(), n = a.cols();
  const int full = std::min(m, n);
  const int cap = std::min(full, acc.maxrank);
  // Adaptive sketch width: start small, double until the tolerance rank
  // converges inside the sketch (or the rank cap rules compression out).
  for (int l = std::min(full, 32 + oversample);;
       l = std::min(full, 2 * l)) {
    auto f = rsvd_fixed(a, acc, rng, l, oversample, power_iters);
    if (f) {
      if (f->rank() > acc.maxrank) return std::nullopt;
      return f;
    }
    if (l >= cap + oversample) {
      // The rank needed already exceeds the admissible cap.
      if (cap < full) return std::nullopt;
    }
    if (l == full) return std::nullopt;  // defensive; rsvd_fixed(full) converges
  }
}

std::optional<LowRankFactor> compress_aca_oracle(
    int rows, int cols, const std::function<double(int, int)>& entry,
    const Accuracy& acc) {
  PTLR_CHECK(rows > 0 && cols > 0, "empty block");
  const int cap = std::min({rows, cols, acc.maxrank});

  // Factors accumulated column-by-column; residual kept implicitly:
  // R = A - U V^T.
  std::vector<std::vector<double>> us, vs;
  std::vector<char> row_used(static_cast<std::size_t>(rows), 0);
  std::vector<char> col_used(static_cast<std::size_t>(cols), 0);
  int i_piv = 0;
  double frob2 = 0.0;  // accumulated ||U V^T||_F^2 estimate
  int consecutive_small = 0;

  for (int it = 0; it < cap + 2; ++it) {
    // Residual row i_piv.
    std::vector<double> r(static_cast<std::size_t>(cols));
    for (int j = 0; j < cols; ++j) {
      double v = entry(i_piv, j);
      for (std::size_t l = 0; l < us.size(); ++l)
        v -= us[l][static_cast<std::size_t>(i_piv)] *
             vs[l][static_cast<std::size_t>(j)];
      r[static_cast<std::size_t>(j)] = v;
    }
    row_used[static_cast<std::size_t>(i_piv)] = 1;
    // Pivot column: largest unused residual entry in the row.
    int j_piv = -1;
    double best = 0.0;
    for (int j = 0; j < cols; ++j) {
      if (col_used[static_cast<std::size_t>(j)]) continue;
      const double v = std::abs(r[static_cast<std::size_t>(j)]);
      if (j_piv < 0 || v > best) {
        best = v;
        j_piv = j;
      }
    }
    if (j_piv < 0 || best == 0.0) break;  // residual row exactly zero
    col_used[static_cast<std::size_t>(j_piv)] = 1;

    // Residual column j_piv.
    std::vector<double> c(static_cast<std::size_t>(rows));
    for (int i = 0; i < rows; ++i) {
      double v = entry(i, j_piv);
      for (std::size_t l = 0; l < us.size(); ++l)
        v -= us[l][static_cast<std::size_t>(i)] *
             vs[l][static_cast<std::size_t>(j_piv)];
      c[static_cast<std::size_t>(i)] = v;
    }
    const double delta = c[static_cast<std::size_t>(i_piv)];
    if (delta == 0.0) break;

    // New term: u = R(:, j*) / delta, v = R(i*, :).
    for (auto& v : c) v /= delta;
    const double nu = dense::nrm2(rows, c.data());
    const double nv = dense::nrm2(cols, r.data());
    us.push_back(std::move(c));
    vs.push_back(std::move(r));
    frob2 += nu * nu * nv * nv;

    // Heuristic stopping: the classical ACA criterion ||u||·||v|| <= tol,
    // required twice in a row to guard against unlucky pivots.
    if (nu * nv <= acc.tol) {
      if (++consecutive_small >= 2) break;
    } else {
      consecutive_small = 0;
    }

    // Next pivot row: largest entry of u among unused rows.
    i_piv = -1;
    best = 0.0;
    const auto& u_last = us.back();
    for (int i = 0; i < rows; ++i) {
      if (row_used[static_cast<std::size_t>(i)]) continue;
      const double v = std::abs(u_last[static_cast<std::size_t>(i)]);
      if (i_piv < 0 || v > best) {
        best = v;
        i_piv = i;
      }
    }
    if (i_piv < 0) break;  // all rows visited
  }

  const int k = static_cast<int>(us.size());
  if (k > acc.maxrank) return std::nullopt;
  Matrix u(rows, k), v(cols, k);
  for (int j = 0; j < k; ++j) {
    std::copy(us[static_cast<std::size_t>(j)].begin(),
              us[static_cast<std::size_t>(j)].end(),
              u.data() + static_cast<std::size_t>(j) * rows);
    std::copy(vs[static_cast<std::size_t>(j)].begin(),
              vs[static_cast<std::size_t>(j)].end(),
              v.data() + static_cast<std::size_t>(j) * cols);
  }
  LowRankFactor f{std::move(u), std::move(v)};
  // ACA overshoots the rank and its error control is heuristic: round down
  // to minimal rank at the requested threshold.
  recompress(f, acc);
  if (f.rank() > acc.maxrank) return std::nullopt;
  return f;
}

std::optional<LowRankFactor> compress_aca(dense::ConstMatrixView a,
                                          const Accuracy& acc) {
  PTLR_CHECK(dense::all_finite(a), "compress_aca: non-finite input block");
  const int m = a.rows(), n = a.cols();
  const int full = std::min(m, n);
  // ACA overshoots the minimal rank; past twice the cap the deterministic
  // path decides, and it also owns the "rank above maxrank" verdict.
  const int limit = std::min(full, 2 * std::min(full, acc.maxrank));
  const double target = acc.tol * kAcaShare;

  // The block is already in memory, so the residual R = A − UVᵀ is kept
  // explicitly: the pivots are those of partial-pivoting ACA, and the stop
  // test reads the exact ‖R‖_F instead of the ‖u‖·‖v‖ estimate.
  Matrix r = dense::to_matrix(a);
  double res = dense::frob_norm(r.view());
  Matrix u(m, limit), v(n, limit);
  std::vector<char> row_used(static_cast<std::size_t>(m), 0);
  std::vector<char> col_used(static_cast<std::size_t>(n), 0);
  int k = 0;
  while (res > target && k < limit) {
    // Pivot row: the unused row where the last column factor is largest
    // (row 0 first); a row whose residual is already zero is skipped.
    int i_piv = -1, j_piv = -1;
    while (j_piv < 0) {
      i_piv = -1;
      double best = -1.0;
      for (int i = 0; i < m; ++i) {
        if (row_used[static_cast<std::size_t>(i)]) continue;
        const double x = k > 0 ? std::abs(u(i, k - 1)) : 0.0;
        if (x > best) {
          best = x;
          i_piv = i;
        }
      }
      if (i_piv < 0) break;  // every row visited
      row_used[static_cast<std::size_t>(i_piv)] = 1;
      best = 0.0;
      for (int j = 0; j < n; ++j) {
        const double x = std::abs(r(i_piv, j));
        if (!col_used[static_cast<std::size_t>(j)] && x > best) {
          best = x;
          j_piv = j;
        }
      }
    }
    if (j_piv < 0) break;
    col_used[static_cast<std::size_t>(j_piv)] = 1;

    // New term: u = R(:, j*) / R(i*, j*), v = R(i*, :); then R −= u·vᵀ,
    // reading ‖R‖_F off the same pass.
    const double delta = r(i_piv, j_piv);
    double* uk = u.view().col(k);
    for (int i = 0; i < m; ++i) uk[i] = r(i, j_piv) / delta;
    for (int j = 0; j < n; ++j) v(j, k) = r(i_piv, j);
    double res2 = 0.0;
    for (int j = 0; j < n; ++j) {
      double* rj = r.view().col(j);
      dense::axpy(m, -v(j, k), uk, rj);
      res2 += dense::dot(m, rj, rj);
    }
    res = std::sqrt(res2);
    ++k;
  }
  // Not certified inside the limit: the deterministic CPQR+SVD decides.
  if (res > target) return compress(a, acc);

  LowRankFactor f{dense::to_matrix(u.block(0, 0, m, k)),
                  dense::to_matrix(v.block(0, 0, n, k))};
  // Round to minimal rank within what the cross left: ‖A − UVᵀ‖_F ≤
  // ‖R‖_F + (tol − ‖R‖_F) = tol by the triangle inequality.
  Accuracy round = acc;
  round.tol = acc.tol - res;
  recompress(f, round);
  if (f.rank() > acc.maxrank) return compress(a, acc);
  return f;
}

std::optional<LowRankFactor> compress_with(Method method,
                                           dense::ConstMatrixView a,
                                           const Accuracy& acc, Rng& rng) {
  switch (method) {
    case Method::kCpqrSvd: return compress(a, acc);
    case Method::kRsvd: return compress_rsvd(a, acc, rng);
    case Method::kAca: return compress_aca(a, acc);
    case Method::kAdaptiveRsvd: {
      // Fallback contract: when the estimator fails to certify the
      // tolerance below the rank cap, the deterministic CPQR+SVD path
      // decides — the adaptive engine never weakens the accuracy bound.
      auto f = compress_adaptive_rsvd(a, acc, rng);
      if (f) return f;
      return compress(a, acc);
    }
  }
  return std::nullopt;
}

}  // namespace ptlr::compress
