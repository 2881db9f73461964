// Unit tests for ptlr::compress — ε-truncated compression & recompression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "compress/compress.hpp"
#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"
#include "stars/problem.hpp"
#include "tlr/tlr_matrix.hpp"

using namespace ptlr::compress;
using namespace ptlr::dense;
using ptlr::Rng;

TEST(Compress, ExactLowRankIsRecoveredExactly) {
  Rng rng(1);
  Matrix a = random_lowrank(60, 40, 8, 1.0, rng);
  auto f = compress(a.view(), {1e-10, 1 << 30});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->rank(), 8);
  EXPECT_LT(approximation_error(a.view(), *f), 1e-9);
}

TEST(Compress, MeetsFrobeniusThreshold) {
  Rng rng(2);
  for (double tol : {1e-3, 1e-6, 1e-9}) {
    Matrix a = random_lowrank(50, 50, 25, 1e-12, rng);
    auto f = compress(a.view(), {tol, 1 << 30});
    ASSERT_TRUE(f.has_value());
    EXPECT_LE(approximation_error(a.view(), *f), tol * 1.5)
        << "tol=" << tol;
  }
}

TEST(Compress, TighterToleranceGivesHigherRank) {
  Rng rng(3);
  Matrix a = random_lowrank(64, 64, 32, 1e-12, rng);
  const int r9 = compress(a.view(), {1e-9, 1 << 30})->rank();
  const int r5 = compress(a.view(), {1e-5, 1 << 30})->rank();
  const int r2 = compress(a.view(), {1e-2, 1 << 30})->rank();
  EXPECT_GT(r9, r5);
  EXPECT_GT(r5, r2);
}

TEST(Compress, FailsWhenRankExceedsMaxrank) {
  Rng rng(4);
  Matrix a(40, 40);
  fill_uniform(a.view(), rng);  // full rank, incompressible at 1e-10
  auto f = compress(a.view(), {1e-10, 10});
  EXPECT_FALSE(f.has_value());
}

TEST(Compress, ZeroMatrixHasRankZero) {
  Matrix a(30, 20);
  auto f = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->rank(), 0);
  Matrix rec = f->to_dense();
  EXPECT_DOUBLE_EQ(frob_norm(rec.view()), 0.0);
}

TEST(Compress, RectangularBlocksBothOrientations) {
  Rng rng(5);
  for (auto [m, n] : {std::pair{60, 25}, std::pair{25, 60}}) {
    Matrix a = random_lowrank(m, n, 6, 1.0, rng);
    auto f = compress(a.view(), {1e-10, 1 << 30});
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->rank(), 6);
    EXPECT_EQ(f->rows(), m);
    EXPECT_EQ(f->cols(), n);
    EXPECT_LT(approximation_error(a.view(), *f), 1e-9);
  }
}

TEST(Compress, CovarianceTileRoundTripAtScaledAccuracy) {
  // End-to-end on a real st-3D-exp tile. At laptop scale the ε matching
  // the paper's rank ratios is looser than its 1e-8 (the ε-rank of a
  // kernel block depends on geometry, not tile size — Fig. 2b).
  auto prob = ptlr::stars::make_problem(ptlr::stars::ProblemKind::kSt3DExp,
                                        512, 21);
  auto tile = prob.block(384, 0, 128, 128);
  auto f = compress(tile.view(), {1e-4, 64});
  ASSERT_TRUE(f.has_value());
  EXPECT_GT(f->rank(), 0);
  EXPECT_LT(f->rank(), 64);
  EXPECT_LE(approximation_error(tile.view(), *f), 1e-4 * 2);
}

TEST(Compress, NumericalRankMatchesSpectrum) {
  Rng rng(6);
  Matrix a = random_lowrank(48, 48, 12, 1.0, rng);
  EXPECT_EQ(numerical_rank(a.view(), {1e-9, 1 << 30}), 12);
}

// A faster SVD polish must not move a single truncation decision: the
// off-diagonal rank sum and maximum of the st-3D-exp TLR matrix (seed 42,
// b = 128) are pinned to the values the uncached three-dot Jacobi sweep
// produced. One rank flipping by one changes the sum.
TEST(Compress, St3dExpRanksMatchParent) {
  struct Pin {
    int n;
    double tol;
    long long rank_sum;
    int rank_max;
  };
  const Pin pins[] = {{1024, 1e-6, 2007, 111},
                      {1024, 1e-8, 2581, 123},
                      {2048, 1e-6, 6856, 115},
                      {2048, 1e-8, 9388, 127}};
  for (const Pin& pin : pins) {
    const auto prob = ptlr::stars::make_problem(
        ptlr::stars::ProblemKind::kSt3DExp, pin.n, 42);
    const auto a =
        ptlr::tlr::TlrMatrix::from_problem(prob, 128, {pin.tol, 1 << 30});
    long long sum = 0;
    int max = 0;
    for (int i = 0; i < a.nt(); ++i)
      for (int j = 0; j < i; ++j) {
        ASSERT_TRUE(a.at(i, j).is_lowrank());
        sum += a.at(i, j).rank();
        max = std::max(max, a.at(i, j).rank());
      }
    EXPECT_EQ(sum, pin.rank_sum) << "n=" << pin.n << " tol=" << pin.tol;
    EXPECT_EQ(max, pin.rank_max) << "n=" << pin.n << " tol=" << pin.tol;
  }
}

// ------------------------------------------------------ truncation rule ----

TEST(TruncationRank, EmptySpectrumIsRankZero) {
  EXPECT_EQ(truncation_rank({}, 1e-8), 0);
}

TEST(TruncationRank, ToleranceAtTheNormDropsEverything) {
  // ‖(3, 4)‖ = 5: a tolerance of 5 admits rank 0, anything below keeps
  // the leading value.
  EXPECT_EQ(truncation_rank({4.0, 3.0}, 5.0), 0);
  EXPECT_EQ(truncation_rank({4.0, 3.0}, 4.999), 1);
}

TEST(TruncationRank, TailIsMeasuredInFrobeniusNorm) {
  // At 0.6 both 0.5 and 0.375 are below tol on their own, but the tail
  // (0.5, 0.375) has norm 0.625, so only one goes; at exactly 0.625 both
  // do. The values are exact in binary, so the boundary is too.
  EXPECT_EQ(truncation_rank({1.0, 0.5, 0.375}, 0.6), 2);
  EXPECT_EQ(truncation_rank({1.0, 0.5, 0.375}, 0.625), 1);
}

TEST(TruncationRank, ExactZerosAreDroppedAtZeroTolerance) {
  EXPECT_EQ(truncation_rank({2.0, 1.0, 0.0, 0.0}, 0.0), 2);
  EXPECT_EQ(truncation_rank({2.0, 1.0, 1e-100}, 0.0), 3);
}

// ---------------------------------------------------------- recompress ----

TEST(Recompress, ReducesInflatedRank) {
  Rng rng(7);
  // Build a rank-5 matrix represented with rank 20 (padded factors).
  Matrix a = random_lowrank(40, 40, 5, 1.0, rng);
  auto exact = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(exact);
  // Inflate: U' = [U, U], V' = [V/2, V/2] represents the same matrix.
  const int k = exact->rank();
  Matrix u2(40, 2 * k), v2(40, 2 * k);
  for (int j = 0; j < k; ++j)
    for (int i = 0; i < 40; ++i) {
      u2(i, j) = exact->u(i, j);
      u2(i, j + k) = exact->u(i, j);
      v2(i, j) = exact->v(i, j) * 0.5;
      v2(i, j + k) = exact->v(i, j) * 0.5;
    }
  LowRankFactor inflated{std::move(u2), std::move(v2)};
  const int knew = recompress(inflated, {1e-10, 1 << 30});
  EXPECT_EQ(knew, k);
  EXPECT_LT(approximation_error(a.view(), inflated), 1e-9);
}

TEST(Recompress, NoReductionKeepsFactorIntact) {
  Rng rng(8);
  Matrix a = random_lowrank(30, 30, 10, 1.0, rng);
  auto f = compress(a.view(), {1e-10, 1 << 30});
  ASSERT_TRUE(f);
  const int k = recompress(*f, {1e-12, 1 << 30});
  EXPECT_EQ(k, 10);
  EXPECT_LT(approximation_error(a.view(), *f), 1e-9);
}

TEST(Recompress, RespectsLooserTolerance) {
  Rng rng(9);
  Matrix a = random_lowrank(50, 50, 25, 1e-10, rng);  // decaying spectrum
  auto f = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(f);
  const int k_before = f->rank();
  const int k_after = recompress(*f, {1e-3, 1 << 30});
  EXPECT_LT(k_after, k_before);
  EXPECT_LE(approximation_error(a.view(), *f), 1e-3 * 1.5);
}

TEST(Recompress, StaysWithinCompressErrorBound) {
  // recompress() rounds its QR-rotated core with compress() itself, so the
  // rounded factor meets the bound compress() meets on the dense block:
  // the CPQR tail plus what the SVD polish drops stays within tol.
  Rng rng(10);
  const double tol = 1e-6;
  for (const auto& [m, n] : {std::pair{64, 64}, std::pair{48, 30}}) {
    Matrix a = random_lowrank(m, n, 20, 1e-8, rng);  // decaying spectrum
    auto exact = compress(a.view(), {1e-14, 1 << 30});
    ASSERT_TRUE(exact);
    auto direct = compress(a.view(), {tol, 1 << 30});
    ASSERT_TRUE(direct);
    const double bound = tol * (1.0 + 1e-12);
    EXPECT_LE(approximation_error(a.view(), *direct), bound);
    LowRankFactor f = *exact;
    const int k = recompress(f, {tol, 1 << 30});
    EXPECT_LT(k, exact->rank());
    EXPECT_LE(approximation_error(a.view(), f), bound);
    EXPECT_LE(k, direct->rank() + 1);  // minimal rank, like compress()
  }
}

TEST(Recompress, RankZeroIsStable) {
  LowRankFactor f{Matrix(20, 0), Matrix(20, 0)};
  EXPECT_EQ(recompress(f, {1e-8, 1 << 30}), 0);
}

TEST(LowRankFactor, ElementCountTracksRank) {
  LowRankFactor f{Matrix(100, 7), Matrix(100, 7)};
  EXPECT_EQ(f.elements(), 2u * 100u * 7u);
}

TEST(LowRankFactor, RankMismatchThrows) {
  EXPECT_THROW((LowRankFactor{Matrix(10, 3), Matrix(10, 4)}), ptlr::Error);
}

// ------------------------------------------------- property-style sweep ----

class CompressSweep : public ::testing::TestWithParam<int> {};

TEST_P(CompressSweep, ErrorAlwaysWithinTolerance) {
  const int seed = GetParam();
  Rng rng(seed);
  const int m = 30 + seed * 3, n = 30 + ((seed * 7) % 20);
  const int r = 3 + seed % 12;
  Matrix a = random_lowrank(m, n, std::min({r, m, n}), 1e-10, rng);
  const double tol = 1e-7;
  auto f = compress(a.view(), {tol, 1 << 30});
  ASSERT_TRUE(f);
  EXPECT_LE(approximation_error(a.view(), *f), tol * 2);
  // Recompression at the same tolerance must not raise the error.
  auto g = *f;
  recompress(g, {tol, 1 << 30});
  EXPECT_LE(approximation_error(a.view(), g), tol * 2);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CompressSweep,
                         ::testing::Range(1, 13));

TEST(Compress, MeetsLooseToleranceOnCovarianceTileUnderRankCap) {
  auto prob = ptlr::stars::make_st3d_matern(512, 1.0, 0.5, 0.5, 37);
  auto tile = prob.block(384, 0, 128, 128);
  auto f = compress(tile.view(), {1e-3, 96});
  ASSERT_TRUE(f);
  EXPECT_LE(approximation_error(tile.view(), *f), 1e-3);
  EXPECT_LT(f->rank(), 96);
}
