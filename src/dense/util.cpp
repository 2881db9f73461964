#include "dense/util.hpp"

#include <algorithm>
#include <cmath>

#include "dense/blas.hpp"
#include "dense/lapack.hpp"

namespace ptlr::dense {

Matrix to_matrix(ConstMatrixView v) {
  Matrix out(v.rows(), v.cols());
  copy(v, out.view());
  return out;
}

void copy(ConstMatrixView src, MatrixView dst) {
  PTLR_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols(),
             "copy dimension mismatch");
  for (int j = 0; j < src.cols(); ++j)
    std::copy_n(src.col(j), src.rows(), dst.col(j));
}

double frob_norm(ConstMatrixView a) {
  double s = 0.0;
  for (int j = 0; j < a.cols(); ++j) {
    const double* c = a.col(j);
    for (int i = 0; i < a.rows(); ++i) s += c[i] * c[i];
  }
  return std::sqrt(s);
}

bool all_finite(ConstMatrixView a) {
  // x·0 is ±0 for a finite x and NaN for ±Inf or NaN, so the sum of every
  // x·0 is zero exactly when all entries are finite. Eight lanes and no
  // exit inside the loop let it vectorize; the one test comes at the end.
  constexpr int kLanes = 8;
  double zero[kLanes] = {};
  for (int j = 0; j < a.cols(); ++j) {
    const double* c = a.col(j);
    int i = 0;
    for (; i + kLanes <= a.rows(); i += kLanes)
      for (int l = 0; l < kLanes; ++l) zero[l] += c[i + l] * 0.0;
    for (; i < a.rows(); ++i) zero[0] += c[i] * 0.0;
  }
  double s = 0.0;
  for (const double z : zero) s += z;
  return s == 0.0;
}

double frob_diff(ConstMatrixView a, ConstMatrixView b) {
  PTLR_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "frob_diff dimension mismatch");
  double s = 0.0;
  for (int j = 0; j < a.cols(); ++j) {
    const double* ca = a.col(j);
    const double* cb = b.col(j);
    for (int i = 0; i < a.rows(); ++i) {
      const double d = ca[i] - cb[i];
      s += d * d;
    }
  }
  return std::sqrt(s);
}

void fill_uniform(MatrixView a, Rng& rng, double lo, double hi) {
  for (int j = 0; j < a.cols(); ++j) {
    double* c = a.col(j);
    for (int i = 0; i < a.rows(); ++i) c[i] = rng.uniform(lo, hi);
  }
}

void fill_gaussian(MatrixView a, Rng& rng) {
  for (int j = 0; j < a.cols(); ++j) {
    double* c = a.col(j);
    for (int i = 0; i < a.rows(); ++i) c[i] = rng.gaussian();
  }
}

Matrix identity(int n) {
  Matrix out(n, n);
  for (int j = 0; j < n; ++j) out(j, j) = 1.0;
  return out;
}

Matrix random_spd(int n, Rng& rng) {
  Matrix g(n, n);
  fill_gaussian(g.view(), rng);
  Matrix out(n, n);
  syrk(Uplo::Lower, Trans::N, 1.0, g.view(), 0.0, out.view());
  symmetrize(Uplo::Lower, out.view());
  for (int j = 0; j < n; ++j) out(j, j) += n;
  return out;
}

Matrix random_lowrank(int m, int n, int r, double smin, Rng& rng) {
  PTLR_CHECK(r <= std::min(m, n), "rank exceeds dimensions");
  // Orthonormal factors from QR of Gaussian matrices.
  Matrix gu(m, r), gv(n, r);
  fill_gaussian(gu.view(), rng);
  fill_gaussian(gv.view(), rng);
  std::vector<double> tau;
  geqrf(gu.view(), tau);
  orgqr(gu.view(), tau, r);
  geqrf(gv.view(), tau);
  orgqr(gv.view(), tau, r);
  // Geometric singular value decay from 1 down to smin.
  const double ratio = r > 1 ? std::pow(smin, 1.0 / (r - 1)) : 1.0;
  double sv = 1.0;
  Matrix scaled(m, r);
  for (int j = 0; j < r; ++j) {
    for (int i = 0; i < m; ++i) scaled(i, j) = gu(i, j) * sv;
    sv *= ratio;
  }
  Matrix out(m, n);
  gemm(Trans::N, Trans::T, 1.0, scaled.view(), gv.view(), 0.0, out.view());
  return out;
}

void symmetrize(Uplo, MatrixView a) {
  PTLR_CHECK(a.rows() == a.cols(), "symmetrize needs a square matrix");
  const int n = a.rows();
  for (int j = 0; j < n; ++j)
    for (int i = j + 1; i < n; ++i) a(j, i) = a(i, j);
}

void zero_opposite_triangle(Uplo, MatrixView a) {
  const int n = std::min(a.rows(), a.cols());
  for (int j = 0; j < n; ++j)
    for (int i = j + 1; i < n; ++i) a(j, i) = 0.0;
}

}  // namespace ptlr::dense
