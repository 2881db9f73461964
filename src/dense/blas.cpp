#include "dense/blas.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/flops.hpp"
#include "dense/gemm_kernel.hpp"
#include "dense/unblocked.hpp"
#include "runtime/nested.hpp"

namespace ptlr::dense {

namespace {

// Balanced [r0, r1) boundaries for child-task chunking: nchunks pieces of
// `extent`, each at least kNestedMinChunk wide (callers guarantee
// extent >= 2 * kNestedMinChunk before asking for nchunks >= 2).
int chunk_lo(int extent, int nchunks, int t) {
  return static_cast<int>(static_cast<long long>(extent) * t / nchunks);
}

// Dimension of op(X) given the trans flag.
int op_rows(Trans t, ConstMatrixView x) { return t == Trans::N ? x.rows() : x.cols(); }
int op_cols(Trans t, ConstMatrixView x) { return t == Trans::N ? x.cols() : x.rows(); }

void scale_matrix(MatrixView c, double beta) {
  if (beta == 1.0) return;
  for (int j = 0; j < c.cols(); ++j) {
    double* cj = c.col(j);
    if (beta == 0.0) {
      // BLAS semantics: beta == 0 overwrites C without reading it, so a
      // NaN/Inf already in C does not survive.
      for (int i = 0; i < c.rows(); ++i) cj[i] = 0.0;
    } else {
      for (int i = 0; i < c.rows(); ++i) cj[i] *= beta;
    }
  }
}

// True when a triangular level-3 call (n-sized triangle, `volume` =
// m*n*k-equivalent) runs on the blocked engine.
bool blocked_l3(int n, double volume) {
  return n > detail::kOuterNB && volume >= 32.0 * 32.0 * 32.0;
}

// The one TRSM combination the signature admits but nothing implements.
void check_trsm_variant(Side side, Trans ta) {
  PTLR_CHECK(side == Side::Left || ta == Trans::T,
             "trsm: Right/Lower/N is not implemented");
}

// X * L^T = B on whole 32-row strips of B: the Right/Lower/T substitution
// of the (1)-TRSM and of POTRF's panel solve at the recursion leaf. A strip
// of X(:, j) stays in four vector accumulators while the solved columns
// p < j fold in, then is scaled once, so each column is read and written
// once per strip instead of once per p. Every element runs the axpy form's
// sequence: one multiply-add by -A(j, p) for p = 0 .. j-1 in order, then
// one multiply by 1 / A(j, j). Returns the rows solved; the caller's axpy
// form solves the rest, and a row computes the same bits in either. Only
// the recursion leaf's n <= kOuterNB columns are tiled: a wider strip falls
// out of L1, where its strided column loads alias at power-of-two leading
// dimensions, so a wide trsm_unblocked called by name keeps the axpy form.
int trsm_rlt_strips(ConstMatrixView a, MatrixView b) {
  using detail::kVecLen;
  using detail::vec_d;
  constexpr int kSV = 4;
  constexpr int kStrip = kSV * kVecLen;
  const int m = b.rows(), n = b.cols();
  if (n > detail::kOuterNB) return 0;
  int i0 = 0;
  for (; i0 + kStrip <= m; i0 += kStrip) {
    for (int j = 0; j < n; ++j) {
      double* bj = b.col(j) + i0;
      vec_d acc[kSV];
      for (int v = 0; v < kSV; ++v)
        __builtin_memcpy(&acc[v], bj + v * kVecLen, sizeof(vec_d));
      for (int p = 0; p < j; ++p) {
        const double w = -a(j, p);
        const double* xp = b.col(p) + i0;
        for (int v = 0; v < kSV; ++v) {
          vec_d x;
          __builtin_memcpy(&x, xp + v * kVecLen, sizeof x);
          acc[v] += w * x;
        }
      }
      const double r = 1.0 / a(j, j);
      for (int v = 0; v < kSV; ++v) acc[v] *= r;
      for (int v = 0; v < kSV; ++v)
        __builtin_memcpy(bj + v * kVecLen, &acc[v], sizeof(vec_d));
    }
  }
  return i0;
}

// L X = B on four columns of B per pass: the Left/Lower/N leaf under every
// (4)-TRSM. The four share each column of L and overlap their divides.
// Every element runs the one-column loop's sequence: one fused
// b -= x_p * l(i, p) for p = 0 .. i-1 in order, then b /= l(i, i), so a
// column solved here gets the bits of a solve of that column alone.
// Returns the columns solved, a multiple of four; the caller solves the
// rest one at a time.
int trsm_lln_quads(ConstMatrixView a, MatrixView b) {
  using detail::kVecLen;
  using detail::vec_d;
  constexpr int kCols = 4;
  const int m = b.rows(), n = b.cols();
  int j0 = 0;
  for (; j0 + kCols <= n; j0 += kCols) {
    double* bc[kCols];
    for (int c = 0; c < kCols; ++c) bc[c] = b.col(j0 + c);
    for (int p = 0; p < m; ++p) {
      const double* ap = a.col(p);
      double w[kCols];
      for (int c = 0; c < kCols; ++c) w[c] = bc[c][p] /= ap[p];
      int i = p + 1;
      for (; i + kVecLen <= m; i += kVecLen) {
        vec_d l;
        __builtin_memcpy(&l, ap + i, sizeof l);
        for (int c = 0; c < kCols; ++c) {
          vec_d x;
          __builtin_memcpy(&x, bc[c] + i, sizeof x);
          x -= w[c] * l;
          __builtin_memcpy(bc[c] + i, &x, sizeof x);
        }
      }
      for (; i < m; ++i)
        for (int c = 0; c < kCols; ++c) bc[c][i] -= w[c] * ap[i];
    }
  }
  return j0;
}

}  // namespace

void syrk_unblocked(double alpha, ConstMatrixView a, MatrixView c) {
  // C(i,j) += alpha * sum_p A(i,p) * A(j,p), triangle-restricted gaxpy.
  const int n = c.rows(), k = a.cols();
  for (int j = 0; j < n; ++j) {
    double* cj = c.col(j);
    for (int p = 0; p < k; ++p) {
      const double w = alpha * a(j, p);
      const double* ap = a.col(p);
      for (int i = j; i < n; ++i) cj[i] += w * ap[i];
    }
  }
}

void trsm_unblocked(Side side, Trans ta, ConstMatrixView a, MatrixView b) {
  check_trsm_variant(side, ta);
  const int m = b.rows(), n = b.cols();
  if (side == Side::Right) {
    // X * L^T = B, forward over columns:
    // X(:,j) = (B(:,j) - sum_{p<j} X(:,p)A(j,p))/A(j,j). Whole strips in
    // registers, the leftover rows i0.. in axpy form. No `w == 0`
    // shortcuts (reference BLAS propagates 0 * NaN).
    const int i0 = trsm_rlt_strips(a, b);
    for (int j = 0; j < n; ++j) {
      double* bj = b.col(j) + i0;
      for (int p = 0; p < j; ++p) axpy(m - i0, -a(j, p), b.col(p) + i0, bj);
      scal(m - i0, 1.0 / a(j, j), bj);
    }
    return;
  }
  // L X = B solves four columns at a time; its leftover columns, and every
  // column of L^T X = B, go one by one.
  const int j0 = ta == Trans::N ? trsm_lln_quads(a, b) : 0;
  for (int j = j0; j < n; ++j) {
    double* bj = b.col(j);
    if (ta == Trans::N) {
      // L X = B: forward substitution, axpy form.
      for (int p = 0; p < m; ++p) {
        bj[p] /= a(p, p);
        const double w = bj[p];
        const double* ap = a.col(p);
        for (int i = p + 1; i < m; ++i) bj[i] -= w * ap[i];
      }
    } else {
      // L^T X = B: backward substitution, dot form (column of L is
      // contiguous).
      for (int p = m - 1; p >= 0; --p) {
        const double s = bj[p] - dot(m - p - 1, a.col(p) + p + 1, bj + p + 1);
        bj[p] = s / a(p, p);
      }
    }
  }
}

namespace {

// Recursive triangular solve (alpha already applied, flops already
// charged): split the triangle in half, solve the independent half first,
// fold its contribution into the other half with one fat GEMM on the
// blocked engine, recurse. Bottoms out on the substitution loops at
// kOuterNB, so the unblocked fraction of the O(na^2 * nrhs) volume decays
// like kOuterNB / na.
void trsm_body(Side side, Trans ta, ConstMatrixView a, MatrixView b) {
  const int m = b.rows(), n = b.cols();
  const int na = side == Side::Left ? m : n;
  const int nrhs = side == Side::Left ? n : m;
  if (!blocked_l3(na, static_cast<double>(na) * na * nrhs)) {
    trsm_unblocked(side, ta, a, b);
    return;
  }
  const int n1 = na / 2, n2 = na - n1;
  auto a11 = a.block(0, 0, n1, n1);
  auto a21 = a.block(n1, 0, n2, n1);
  auto a22 = a.block(n1, n1, n2, n2);
  if (side == Side::Right) {
    // X L^T = B: L^T is upper, so the columns solve left to right.
    auto b1 = b.block(0, 0, m, n1), b2 = b.block(0, n1, m, n2);
    trsm_body(side, ta, a11, b1);
    detail::gemm_body(Trans::N, Trans::T, -1.0, b1, a21, b2);
    trsm_body(side, ta, a22, b2);
    return;
  }
  auto b1 = b.block(0, 0, n1, n), b2 = b.block(n1, 0, n2, n);
  if (ta == Trans::N) {
    // L X = B solves top-down.
    trsm_body(side, ta, a11, b1);
    detail::gemm_body(Trans::N, Trans::N, -1.0, a21, b1, b2);
    trsm_body(side, ta, a22, b2);
  } else {
    // L^T X = B solves bottom-up.
    trsm_body(side, ta, a22, b2);
    detail::gemm_body(Trans::T, Trans::N, -1.0, a21, b2, b1);
    trsm_body(side, ta, a11, b1);
  }
}

}  // namespace

double dot(int n, const double* x, const double* y) {
  // Eight independent partial sums, so the loop is bound by load/FMA
  // throughput instead of the latency of one serial add chain; the
  // remainder folds into the pairwise-combined total in index order.
  constexpr int kLanes = 8;
  double part[kLanes] = {};
  int i = 0;
  for (; i + kLanes <= n; i += kLanes)
    for (int l = 0; l < kLanes; ++l) part[l] += x[i + l] * y[i + l];
  double s = ((part[0] + part[1]) + (part[2] + part[3])) +
             ((part[4] + part[5]) + (part[6] + part[7]));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void axpy(int n, double alpha, const double* x, double* y) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(int n, double alpha, double* x) {
  for (int i = 0; i < n; ++i) x[i] *= alpha;
}

double nrm2(int n, const double* x) {
  // One pass: the sum of squares in dot's eight lanes. Its square root is
  // the norm whenever that sum lies in [kMinSum, DBL_MAX]: no square
  // overflowed, and the squares and partial sums that underflowed lost at
  // most n·2^-1074, at most n·eps² of the sum. A zero, tiny or non-finite
  // sum (a NaN, an Inf or an overflow) takes the scaled loop below.
  constexpr double kMinSum = std::numeric_limits<double>::min() /
                             std::numeric_limits<double>::epsilon();
  const double sum = dot(n, x, x);
  if (sum >= kMinSum && sum <= std::numeric_limits<double>::max())
    return std::sqrt(sum);
  // Scaled accumulation to avoid overflow/underflow for extreme inputs.
  double scale = 0.0, ssq = 1.0;
  for (int i = 0; i < n; ++i) {
    const double v = std::abs(x[i]);
    if (v == 0.0) continue;
    if (scale < v) {
      ssq = 1.0 + ssq * (scale / v) * (scale / v);
      scale = v;
    } else {
      ssq += (v / scale) * (v / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c) {
  const int m = c.rows(), n = c.cols(), k = op_cols(ta, a);
  PTLR_CHECK(op_rows(ta, a) == m && op_rows(tb, b) == k &&
                 op_cols(tb, b) == n,
             "gemm dimension mismatch");
  scale_matrix(c, beta);
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;
  flops::Counter::add(flops::gemm(m, n, k));
  detail::gemm_body(ta, tb, alpha, a, b, c);
}

void syrk(Uplo, Trans ta, double alpha, ConstMatrixView a, double beta,
          MatrixView c) {
  PTLR_CHECK(ta == Trans::N, "syrk: Lower/T is not implemented");
  const int n = c.rows(), k = a.cols();
  PTLR_CHECK(c.cols() == n && a.rows() == n, "syrk dimension mismatch");
  // Scale the lower triangle only.
  for (int j = 0; j < n; ++j) {
    double* cj = c.col(j);
    if (beta == 0.0) {
      for (int i = j; i < n; ++i) cj[i] = 0.0;
    } else if (beta != 1.0) {
      for (int i = j; i < n; ++i) cj[i] *= beta;
    }
  }
  if (alpha == 0.0 || n == 0 || k == 0) return;
  flops::Counter::add(flops::syrk(n, k));

  if (!blocked_l3(n, static_cast<double>(n) * n * k)) {
    syrk_unblocked(alpha, a, c);
    return;
  }
  // Ride the packed GEMM engine with a triangle mask: C += alpha * A * A^T
  // restricted to the lower triangle. One packing pass, full microkernel
  // speed; microtiles above the diagonal are skipped, straddlers masked at
  // write-back. No extra flops charged — the model above covers it all.
  constexpr detail::TriMask kMask = detail::TriMask::kLower;
  if (rt::nested_available() && n >= 2 * detail::kNestedMinChunk &&
      static_cast<double>(n) * n * k >= detail::kNestedMinVolume) {
    // Child tasks over row-blocks of C: each child owns its diagonal
    // triangle block (the mask condition is local — the block sits on the
    // diagonal) plus the rectangle left of it. Bitwise-safe for the same
    // reason as the GEMM chunking: every in-triangle element is produced
    // by the identical packed k-sum; the decomposition only redraws
    // blocking boundaries and re-labels which call skips the
    // out-of-triangle area. Children call gemm_blocked directly, so no
    // size-dependent dispatch can diverge from the undivided call.
    const int nchunks =
        std::min(n / detail::kNestedMinChunk, detail::kNestedMaxChunks);
    rt::TaskGroup tg;
    for (int t = 0; t < nchunks; ++t) {
      const int r0 = chunk_lo(n, nchunks, t);
      const int r1 = chunk_lo(n, nchunks, t + 1);
      const int nb = r1 - r0;
      const ConstMatrixView ai = a.block(r0, 0, nb, k);
      const MatrixView cd = c.block(r0, r0, nb, nb);
      tg.spawn([alpha, a, ai, cd, r0, nb, k, &c] {
        detail::gemm_blocked(Trans::N, Trans::T, alpha, ai, ai, cd, kMask);
        if (r0 > 0)
          detail::gemm_blocked(Trans::N, Trans::T, alpha, ai,
                               a.block(0, 0, r0, k), c.block(r0, 0, nb, r0));
      });
    }
    tg.sync();
    return;
  }
  detail::gemm_blocked(Trans::N, Trans::T, alpha, a, a, c, kMask);
}

void trsm(Side side, Uplo, Trans ta, Diag, double alpha, ConstMatrixView a,
          MatrixView b) {
  check_trsm_variant(side, ta);
  const int m = b.rows(), n = b.cols();
  const int na = side == Side::Left ? m : n;
  PTLR_CHECK(a.rows() == na && a.cols() == na, "trsm dimension mismatch");
  if (alpha != 1.0) scale_matrix(b, alpha);
  if (m == 0 || n == 0) return;
  flops::Counter::add(side == Side::Left ? flops::trsm(m, n)
                                         : flops::trsm(n, m));
  const int nrhs = side == Side::Left ? n : m;
  if (rt::nested_available() && nrhs >= 2 * detail::kNestedMinChunk &&
      static_cast<double>(na) * na * nrhs >= detail::kNestedMinVolume &&
      blocked_l3(na, static_cast<double>(na) * na * nrhs)) {
    // Child tasks over the right-hand sides: columns of B for Side::Left,
    // rows for Side::Right — the triangular solve treats each one
    // independently at every level (substitution loops are per-column /
    // per-row, the recursion splits only the na axis). Bitwise-safe
    // because a chunk of >= kNestedMinChunk rhs keeps every dispatch on
    // the fat call's branch: blocked_l3(na', na'^2 * nrhs') and
    // worth_blocking on the internal GEMM folds are already far above
    // their thresholds at nrhs' = 64 for every na' > kOuterNB the
    // recursion visits, and below that both takes are unblocked anyway.
    const int nchunks =
        std::min(nrhs / detail::kNestedMinChunk, detail::kNestedMaxChunks);
    rt::TaskGroup tg;
    for (int t = 0; t < nchunks; ++t) {
      const int s0 = chunk_lo(nrhs, nchunks, t);
      const int s1 = chunk_lo(nrhs, nchunks, t + 1);
      const MatrixView bc = side == Side::Left
                                ? b.block(0, s0, m, s1 - s0)
                                : b.block(s0, 0, s1 - s0, n);
      tg.spawn([side, ta, a, bc] { trsm_body(side, ta, a, bc); });
    }
    tg.sync();
    return;
  }
  trsm_body(side, ta, a, b);
}

void gemv(Trans ta, double alpha, ConstMatrixView a, const double* x,
          double beta, double* y) {
  const int m = a.rows(), n = a.cols();
  const int ny = ta == Trans::N ? m : n;
  if (beta == 0.0) {
    for (int i = 0; i < ny; ++i) y[i] = 0.0;
  } else if (beta != 1.0) {
    scal(ny, beta, y);
  }
  if (alpha == 0.0) return;
  flops::Counter::add(2.0 * m * n);
  if (ta == Trans::N) {
    for (int j = 0; j < n; ++j) axpy(m, alpha * x[j], a.col(j), y);
  } else {
    for (int j = 0; j < n; ++j) y[j] += alpha * dot(m, a.col(j), x);
  }
}

}  // namespace ptlr::dense
