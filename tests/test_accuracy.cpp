// End-to-end accuracy: the TLR band Cholesky against a dense-oracle POTRF
// on the paper's 512-point st-3D-exp (Matérn) covariance, across the
// accuracy thresholds the paper sweeps. The factorization must reproduce
// A = L L^T in the Frobenius norm to within the compression tolerance.
#include <gtest/gtest.h>

#include <tuple>

#include "core/cholesky.hpp"
#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"
#include "stars/problem.hpp"

using namespace ptlr;
using dense::Matrix;
using dense::Trans;

namespace {

constexpr int kN = 512;
constexpr int kB = 64;

// ||A - L L^T||_F / ||A||_F with L the lower triangle of the factored TLR
// matrix (assembled dense; the strictly-upper part of diagonal tiles holds
// stale values by design and is masked off).
double backward_error(const Matrix& a, const tlr::TlrMatrix& factored) {
  const int n = a.rows();
  Matrix l(n, n);
  for (int i = 0; i < factored.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      const Matrix blk = factored.at(i, j).to_dense();
      for (int c = 0; c < blk.cols(); ++c)
        for (int r = 0; r < blk.rows(); ++r) {
          if (i == j && r < c) continue;
          l(factored.row_offset(i) + r, factored.row_offset(j) + c) =
              blk(r, c);
        }
    }
  Matrix rec(n, n);
  dense::gemm(Trans::N, Trans::T, 1.0, l.view(), l.view(), 0.0, rec.view());
  return dense::frob_diff(rec.view(), a.view()) / dense::frob_norm(a.view());
}

}  // namespace

// (band size, tol): band 0 runs the Algorithm 1 auto-tuner, as the paper
// does; band 2 fixes a thin band, so most tiles stay low-rank and take
// their updates through the LR GEMM's compression.
class AccuracyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(AccuracyTest, TlrCholeskyMatchesOperatorWithinTolerance) {
  const auto [band, tol] = GetParam();
  auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, kN);
  const Matrix a = prob.block(0, 0, kN, kN);

  const compress::Accuracy acc{tol, 1 << 30};
  auto sigma = tlr::TlrMatrix::from_problem(prob, kB, acc, 1);
  core::CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = band;
  cfg.nthreads = 2;
  const auto res = core::factorize(sigma, &prob, cfg);
  EXPECT_GE(res.band_size, 1);

  const double err = backward_error(a, sigma);
  // Truncation is per-tile with threshold `tol`; errors across O(N/b)
  // panels accumulate at most linearly (the bound test_core uses too).
  EXPECT_LE(err, tol * kN) << "band " << band << " tol " << tol;
  EXPECT_GT(err, 0.0);  // TLR is genuinely approximate
}

INSTANTIATE_TEST_SUITE_P(Thresholds, AccuracyTest,
                         ::testing::Combine(::testing::Values(0, 2),
                                            ::testing::Values(1e-4, 1e-6,
                                                              1e-8)));

// The other covariance presets at the thin band: the LR GEMM's one
// compression per updated tile keeps every kernel's factorization within
// the same dense-oracle bound, from the 2D case the paper contrasts with
// 3D to the smooth squared-exponential field whose tiles carry the
// highest relative dynamic range.
class KindAccuracyTest
    : public ::testing::TestWithParam<std::tuple<stars::ProblemKind, double>> {
};

TEST_P(KindAccuracyTest, TlrCholeskyMatchesOperatorWithinTolerance) {
  const auto [kind, tol] = GetParam();
  auto prob = stars::make_problem(kind, kN);
  const Matrix a = prob.block(0, 0, kN, kN);

  const compress::Accuracy acc{tol, 1 << 30};
  auto sigma = tlr::TlrMatrix::from_problem(prob, kB, acc, 1);
  core::CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = 2;
  cfg.nthreads = 2;
  core::factorize(sigma, &prob, cfg);

  const double err = backward_error(a, sigma);
  EXPECT_LE(err, tol * kN) << stars::to_string(kind) << " tol " << tol;
  EXPECT_GT(err, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, KindAccuracyTest,
    ::testing::Combine(::testing::Values(stars::ProblemKind::kSt2DExp,
                                         stars::ProblemKind::kSt3DSqExp,
                                         stars::ProblemKind::kSt3DMatern),
                       ::testing::Values(1e-4, 1e-8)));

TEST(AccuracyOracle, DenseCholeskyIsExactToMachinePrecision) {
  // Oracle sanity: the same operator factored densely has no truncation
  // error, so the TLR error above is attributable to compression alone.
  auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, kN);
  const Matrix a = prob.block(0, 0, kN, kN);
  Matrix l = a;
  dense::potrf(dense::Uplo::Lower, l.view());
  dense::zero_opposite_triangle(dense::Uplo::Lower, l.view());
  Matrix rec(kN, kN);
  dense::gemm(Trans::N, Trans::T, 1.0, l.view(), l.view(), 0.0, rec.view());
  const double err =
      dense::frob_diff(rec.view(), a.view()) / dense::frob_norm(a.view());
  EXPECT_LT(err, 1e-13);
}

TEST(AccuracyOracle, TighterThresholdGivesSmallerError) {
  auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, kN);
  const Matrix a = prob.block(0, 0, kN, kN);
  double prev = 1.0;
  for (const double tol : {1e-4, 1e-8}) {
    const compress::Accuracy acc{tol, 1 << 30};
    auto sigma = tlr::TlrMatrix::from_problem(prob, kB, acc, 1);
    core::CholeskyConfig cfg;
    cfg.acc = acc;
    cfg.band_size = 2;
    cfg.nthreads = 2;
    core::factorize(sigma, &prob, cfg);
    const double err = backward_error(a, sigma);
    EXPECT_LT(err, prev);
    prev = err;
  }
}
