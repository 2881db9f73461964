// Compression correctness battery (ctest label "compress").
//
// Property-based fuzzing of compress() and recompress() over synthetic
// matrices with prescribed singular-value decay, across the paper's
// thresholds and the tile shapes a TLR matrix holds; degenerate-shape and
// non-finite-input edge cases of both; bitwise reproducibility; and an
// 8-seed chaos sweep asserting that the factorization, whose LR GEMM
// compresses every updated low-rank tile, is schedule-invariant end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "compress/compress.hpp"
#include "core/cholesky.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"
#include "stars/problem.hpp"
#include "tlr/tlr_matrix.hpp"

using namespace ptlr::compress;
using namespace ptlr::dense;
using ptlr::Rng;
namespace core = ptlr::core;
namespace rt = ptlr::rt;
namespace resil = ptlr::resil;
namespace stars = ptlr::stars;
namespace tlr = ptlr::tlr;

namespace {

// A = U diag(s) Vᵀ with random orthonormal U, V: a matrix whose singular
// values are exactly the prescribed spectrum, the ground truth compress()
// is judged against.
Matrix matrix_with_spectrum(int m, int n, const std::vector<double>& s,
                            Rng& rng) {
  const int r = static_cast<int>(s.size());
  Matrix gu(m, r), gv(n, r);
  fill_gaussian(gu.view(), rng);
  fill_gaussian(gv.view(), rng);
  std::vector<double> tau;
  geqrf(gu.view(), tau);
  orgqr(gu.view(), tau, r);
  geqrf(gv.view(), tau);
  orgqr(gv.view(), tau, r);
  Matrix scaled(m, r);
  for (int j = 0; j < r; ++j)
    for (int i = 0; i < m; ++i) scaled(i, j) = gu(i, j) * s[j];
  Matrix out(m, n);
  gemm(Trans::N, Trans::T, 1.0, scaled.view(), gv.view(), 0.0, out.view());
  return out;
}

// The four decay classes of the battery.
enum class Spectrum { kExactLowRank, kPlateau, kSlowDecay, kNoiseFloor };

const char* spectrum_name(Spectrum s) {
  switch (s) {
    case Spectrum::kExactLowRank: return "exact-low-rank";
    case Spectrum::kPlateau: return "plateau";
    case Spectrum::kSlowDecay: return "slow-decay";
    case Spectrum::kNoiseFloor: return "noise-floor";
  }
  return "?";
}

// gtest prints a parameter through PrintTo (and ctest names each case by
// that text); without one an enum class prints as its raw bytes.
void PrintTo(Spectrum s, std::ostream* os) { *os << spectrum_name(s); }

std::vector<double> make_spectrum(Spectrum kind, int full) {
  std::vector<double> s;
  switch (kind) {
    case Spectrum::kExactLowRank:
      // Rank 8, geometric 1 → 1e-2, then exactly zero.
      for (int i = 0; i < 8; ++i)
        s.push_back(std::pow(10.0, -2.0 * i / 7.0));
      break;
    case Spectrum::kPlateau:
      // Ten equal values, then a cliff far below every test tolerance.
      for (int i = 0; i < full; ++i)
        s.push_back(i < 10 ? 1.0 : 1e-13);
      break;
    case Spectrum::kSlowDecay:
      // Geometric 1 → 1e-7 across the whole spectrum: the hard case for
      // sketching, every tolerance lands mid-decay.
      for (int i = 0; i < full; ++i)
        s.push_back(std::pow(10.0, -7.0 * i / (full - 1)));
      break;
    case Spectrum::kNoiseFloor:
      // Fast decay into a flat floor below the test tolerances.
      for (int i = 0; i < full; ++i)
        s.push_back(std::max(std::pow(10.0, -static_cast<double>(i)),
                             1e-10));
      break;
  }
  return s;
}

}  // namespace

// ------------------------------------------- spectrum property fuzzing ----

namespace {

// Rank bound against the spectrum oracle: no fewer columns than an error
// ≤ tol admits, no more than an SVD truncation at tol/2 plus a few columns
// of pivoting slack would keep.
void expect_rank_near_minimal(int rank, const std::vector<double>& s,
                              double tol, const std::string& what) {
  EXPECT_GE(rank, truncation_rank(s, tol)) << what;
  EXPECT_LE(rank, truncation_rank(s, tol * 0.5) + 4) << what;
}

// compress() of an m×n matrix with spectrum `kind`, judged against the
// bound it documents and against the spectrum oracle.
void check_compress_on_spectrum(int m, int n, Spectrum kind, double tol,
                                Rng& rng) {
  const std::string what = std::string(spectrum_name(kind)) + " " +
                           std::to_string(m) + "x" + std::to_string(n);
  const auto s = make_spectrum(kind, std::min(m, n));
  Matrix a = matrix_with_spectrum(m, n, s, rng);

  auto f = compress(a.view(), {tol, 1 << 30});
  ASSERT_TRUE(f) << what;
  EXPECT_EQ(f->rows(), m) << what;
  EXPECT_EQ(f->cols(), n) << what;
  EXPECT_LE(approximation_error(a.view(), *f), tol) << what;
  expect_rank_near_minimal(f->rank(), s, tol, what);
}

}  // namespace

class SpectrumFuzz
    : public ::testing::TestWithParam<std::tuple<Spectrum, double>> {};

TEST_P(SpectrumFuzz, ErrorMeetsToleranceAndRankIsNearMinimal) {
  const auto [kind, tol] = GetParam();
  Rng rng(101 + static_cast<int>(kind) * 7);
  check_compress_on_spectrum(64, 48, kind, tol, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Battery, SpectrumFuzz,
    ::testing::Combine(
        ::testing::Values(Spectrum::kExactLowRank, Spectrum::kPlateau,
                          Spectrum::kSlowDecay, Spectrum::kNoiseFloor),
        ::testing::Values(1e-4, 1e-6)));

// The rest of the paper's threshold range (1e-8 … 1e-3): the bound holds
// wherever the truncation lands, at full rank (slow decay at 1e-8, where
// the CPQR runs to its cap) and past the noise floor alike.
INSTANTIATE_TEST_SUITE_P(
    PaperThresholds, SpectrumFuzz,
    ::testing::Combine(
        ::testing::Values(Spectrum::kExactLowRank, Spectrum::kPlateau,
                          Spectrum::kSlowDecay, Spectrum::kNoiseFloor),
        ::testing::Values(1e-3, 1e-5, 1e-7, 1e-8)));

// ------------------------------------------------- the factor contract ----

namespace {

// compress()'s factor is the CPQR's own: U = Q with orthonormal columns,
// V = Aᵀ·U (so U·Vᵀ = U·Uᵀ·A, the orthogonal projection of A onto
// span(U)), at the rank the CPQR truncated at tol stops on.
void expect_projection_factor(const Matrix& a, double tol,
                              const std::string& what) {
  constexpr double eps = std::numeric_limits<double>::epsilon();
  const int m = a.rows(), n = a.cols();
  auto f = compress(a.view(), {tol, 1 << 30});
  ASSERT_TRUE(f) << what;
  const int k = f->rank();

  Matrix copy = a;
  EXPECT_EQ(k, geqp3_trunc(copy.view(), tol, std::min(m, n)).rank) << what;

  Matrix utu(k, k);
  gemm(Trans::T, Trans::N, 1.0, f->u.view(), f->u.view(), 0.0, utu.view());
  for (int i = 0; i < k; ++i) utu(i, i) -= 1.0;
  EXPECT_LE(frob_norm(utu.view()), 256 * eps) << what << " ‖UᵀU − I‖_F";

  Matrix atu(n, k);
  gemm(Trans::T, Trans::N, 1.0, a.view(), f->u.view(), 0.0, atu.view());
  EXPECT_LE(frob_diff(f->v.view(), atu.view()),
            64 * eps * frob_norm(a.view()))
      << what << " ‖V − AᵀU‖_F";
}

}  // namespace

TEST(CompressContract, UIsOrthonormalAndVIsAtransposeU) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 512, 21);
  for (const auto& [tol, label] :
       {std::pair{1e-4, "1e-4"}, std::pair{1e-8, "1e-8"}}) {
    const std::string at = std::string(" tol=") + label;
    for (auto [i, j] : {std::pair{128, 0}, std::pair{384, 0},
                        std::pair{384, 256}}) {
      const Matrix tile = prob.block(i, j, 128, 128);
      expect_projection_factor(tile, tol,
                               "st-3D-exp tile (" + std::to_string(i) + "," +
                                   std::to_string(j) + ")" + at);
    }
    for (Spectrum kind : {Spectrum::kExactLowRank, Spectrum::kPlateau,
                          Spectrum::kSlowDecay, Spectrum::kNoiseFloor}) {
      Rng rng(301 + static_cast<int>(kind) * 7);
      const Matrix a =
          matrix_with_spectrum(64, 48, make_spectrum(kind, 48), rng);
      expect_projection_factor(a, tol, spectrum_name(kind) + at);
    }
  }
}

// Tile shapes of a TLR matrix other than the battery's tall 64×48: square
// interior tiles, wide ones (the orientation the CPQR pivots across the
// long side), and the short tail tiles of an N that is not a multiple of
// b, in both orientations.
struct TileShape {
  int m, n;
};

void PrintTo(const TileShape& s, std::ostream* os) {
  *os << s.m << "x" << s.n;
}

class TileShapeFuzz
    : public ::testing::TestWithParam<std::tuple<Spectrum, TileShape>> {};

TEST_P(TileShapeFuzz, ErrorMeetsToleranceAndRankIsNearMinimal) {
  const auto [kind, shape] = GetParam();
  Rng rng(401 + static_cast<int>(kind) * 7 + shape.m * 3 + shape.n);
  check_compress_on_spectrum(shape.m, shape.n, kind, 1e-6, rng);
}

namespace {

std::string tile_shape_case_name(
    const ::testing::TestParamInfo<TileShapeFuzz::ParamType>& p) {
  const auto [kind, shape] = p.param;
  std::string name = spectrum_name(kind);
  for (char& c : name)
    if (c == '-') c = '_';
  return name + "_" + std::to_string(shape.m) + "x" + std::to_string(shape.n);
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Battery, TileShapeFuzz,
    ::testing::Combine(
        ::testing::Values(Spectrum::kExactLowRank, Spectrum::kPlateau,
                          Spectrum::kSlowDecay, Spectrum::kNoiseFloor),
        ::testing::Values(TileShape{64, 64}, TileShape{48, 64},
                          TileShape{64, 23}, TileShape{23, 64})),
    tile_shape_case_name);

namespace {

// Rank-k factor inflated to rank 2k representing the same matrix — the
// shape of a sum of low-rank updates that recompress() rounds.
LowRankFactor inflate_factor(const LowRankFactor& f) {
  const int m = f.rows(), n = f.cols(), k = f.rank();
  Matrix u2(m, 2 * k), v2(n, 2 * k);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < m; ++i) {
      u2(i, j) = f.u(i, j);
      u2(i, j + k) = f.u(i, j);
    }
    for (int i = 0; i < n; ++i) {
      v2(i, j) = f.v(i, j) * 0.5;
      v2(i, j + k) = f.v(i, j) * 0.5;
    }
  }
  return LowRankFactor{std::move(u2), std::move(v2)};
}

}  // namespace

// recompress() rounds its QR core with compress(), so a rank-inflated
// factor must come back within the same bound and the same rank window
// (against the spectrum oracle) as compressing the matrix it represents.
class RecompressFuzz
    : public ::testing::TestWithParam<std::tuple<Spectrum, double>> {};

TEST_P(RecompressFuzz, RoundedFactorMeetsToleranceAndRankIsNearMinimal) {
  const auto [kind, tol] = GetParam();
  Rng rng(211 + static_cast<int>(kind) * 7);
  const int m = 64, n = 48;
  const auto s = make_spectrum(kind, std::min(m, n));
  Matrix a = matrix_with_spectrum(m, n, s, rng);
  const auto exact = compress(a.view(), {1e-14, 1 << 30});
  ASSERT_TRUE(exact) << spectrum_name(kind);

  LowRankFactor f = inflate_factor(*exact);
  const Matrix represented = f.to_dense();
  const int k = recompress(f, {tol, 1 << 30});
  EXPECT_EQ(k, f.rank()) << spectrum_name(kind);
  EXPECT_LE(approximation_error(represented.view(), f), tol)
      << spectrum_name(kind);
  expect_rank_near_minimal(k, s, tol, spectrum_name(kind));
}

INSTANTIATE_TEST_SUITE_P(
    Battery, RecompressFuzz,
    ::testing::Combine(
        ::testing::Values(Spectrum::kExactLowRank, Spectrum::kPlateau,
                          Spectrum::kSlowDecay, Spectrum::kNoiseFloor),
        ::testing::Values(1e-4, 1e-6)));

// --------------------------------------------------- degenerate shapes ----

TEST(CompressEdge, SingleRowTile) {
  Rng rng(31);
  Matrix a(1, 40);
  fill_uniform(a.view(), rng);
  auto f = compress(a.view(), {1e-10, 1 << 30});
  ASSERT_TRUE(f);
  EXPECT_LE(f->rank(), 1);
  EXPECT_LE(approximation_error(a.view(), *f), 1e-9);
}

TEST(CompressEdge, SingleColumnTile) {
  Rng rng(32);
  Matrix a(40, 1);
  fill_uniform(a.view(), rng);
  auto f = compress(a.view(), {1e-10, 1 << 30});
  ASSERT_TRUE(f);
  EXPECT_LE(f->rank(), 1);
  EXPECT_LE(approximation_error(a.view(), *f), 1e-9);
}

TEST(CompressEdge, ZeroTileHasRankZero) {
  Matrix a(30, 20);
  auto f = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(f);
  EXPECT_EQ(f->rank(), 0);
}

TEST(CompressEdge, RankCapExhaustionReturnsNullopt) {
  Rng rng(33);
  Matrix a(40, 40);
  fill_uniform(a.view(), rng);  // full rank, incompressible at 1e-12
  auto f = compress(a.view(), {1e-12, 6});
  EXPECT_FALSE(f.has_value());
}

TEST(CompressEdge, NaNInputFailsLoudly) {
  Matrix a(12, 10);
  a(3, 4) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(compress(a.view(), {1e-8, 1 << 30}), ptlr::Error);
}

TEST(CompressEdge, InfInputFailsLoudly) {
  Matrix a(12, 10);
  a(7, 2) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(compress(a.view(), {1e-8, 1 << 30}), ptlr::Error);
}

// The same edges in product form, through recompress().

TEST(RecompressEdge, SingleRowFactor) {
  Rng rng(34);
  Matrix u(1, 3), v(40, 3);
  fill_uniform(u.view(), rng);
  fill_uniform(v.view(), rng);
  LowRankFactor f{std::move(u), std::move(v)};
  const Matrix represented = f.to_dense();
  EXPECT_LE(recompress(f, {1e-10, 1 << 30}), 1);
  EXPECT_LE(approximation_error(represented.view(), f), 1e-9);
}

TEST(RecompressEdge, SingleColumnFactor) {
  Rng rng(35);
  Matrix u(40, 3), v(1, 3);
  fill_uniform(u.view(), rng);
  fill_uniform(v.view(), rng);
  LowRankFactor f{std::move(u), std::move(v)};
  const Matrix represented = f.to_dense();
  EXPECT_LE(recompress(f, {1e-10, 1 << 30}), 1);
  EXPECT_LE(approximation_error(represented.view(), f), 1e-9);
}

TEST(RecompressEdge, ZeroFactorRoundsToRankZero) {
  LowRankFactor f{Matrix(30, 4), Matrix(20, 4)};
  EXPECT_EQ(recompress(f, {1e-12, 1 << 30}), 0);
  EXPECT_EQ(f.rank(), 0);
  EXPECT_EQ(f.rows(), 30);
  EXPECT_EQ(f.cols(), 20);
}

TEST(RecompressEdge, RankCapIsNotEnforced) {
  // recompress() documents that it rounds without a cap: densifying a tile
  // whose rank grew is the caller's decision, not a silent truncation.
  Rng rng(36);
  Matrix a = random_lowrank(40, 40, 10, 1.0, rng);
  auto exact = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(exact);
  LowRankFactor f = inflate_factor(*exact);
  EXPECT_EQ(recompress(f, {1e-10, 4}), 10);
  EXPECT_LE(approximation_error(a.view(), f), 1e-9);
}

TEST(RecompressEdge, NaNFactorFailsLoudly) {
  Rng rng(37);
  Matrix u(12, 4), v(10, 4);
  fill_uniform(u.view(), rng);
  fill_uniform(v.view(), rng);
  u(3, 1) = std::numeric_limits<double>::quiet_NaN();
  LowRankFactor f{std::move(u), std::move(v)};
  EXPECT_THROW(recompress(f, {1e-8, 1 << 30}), ptlr::Error);
}

TEST(RecompressEdge, InfFactorFailsLoudly) {
  Rng rng(38);
  Matrix u(12, 4), v(10, 4);
  fill_uniform(u.view(), rng);
  fill_uniform(v.view(), rng);
  v(7, 2) = std::numeric_limits<double>::infinity();
  LowRankFactor f{std::move(u), std::move(v)};
  EXPECT_THROW(recompress(f, {1e-8, 1 << 30}), ptlr::Error);
}

// ----------------------------------------------------- determinism ----
// compress() is the one engine behind every rank and every factor, so the
// distributed verify and the benchmark's factor hash rely on it being a
// pure function of the block's values.

namespace {

void expect_bitwise_equal(const LowRankFactor& a, const LowRankFactor& b) {
  ASSERT_EQ(a.rank(), b.rank());
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int j = 0; j < a.rank(); ++j) {
    for (int i = 0; i < a.rows(); ++i)
      ASSERT_EQ(a.u(i, j), b.u(i, j)) << "u(" << i << "," << j << ")";
    for (int i = 0; i < a.cols(); ++i)
      ASSERT_EQ(a.v(i, j), b.v(i, j)) << "v(" << i << "," << j << ")";
  }
}

}  // namespace

TEST(Determinism, CompressIsBitwiseReproducible) {
  Rng rng(51);
  Matrix a = random_lowrank(80, 64, 12, 1e-6, rng);
  auto f1 = compress(a.view(), {1e-8, 1 << 30});
  auto f2 = compress(a.view(), {1e-8, 1 << 30});
  ASSERT_TRUE(f1);
  ASSERT_TRUE(f2);
  expect_bitwise_equal(*f1, *f2);
}

TEST(Determinism, RecompressIsBitwiseReproducible) {
  Rng rng(53);
  Matrix a = random_lowrank(72, 72, 8, 1.0, rng);
  auto exact = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(exact);
  LowRankFactor f1 = inflate_factor(*exact);
  LowRankFactor f2 = inflate_factor(*exact);
  recompress(f1, {1e-10, 1 << 30});
  recompress(f2, {1e-10, 1 << 30});
  expect_bitwise_equal(f1, f2);
}

TEST(Determinism, StridedViewCompressesLikeContiguousCopy) {
  // Tiles reach compress() as views into larger buffers; the leading
  // dimension must not change a single bit of the factor.
  Rng rng(55);
  Matrix big = random_lowrank(100, 100, 30, 1e-8, rng);
  const auto view = big.block(10, 20, 64, 48);
  const Matrix copy = to_matrix(view);
  auto f1 = compress(view, {1e-6, 1 << 30});
  auto f2 = compress(copy.view(), {1e-6, 1 << 30});
  ASSERT_TRUE(f1);
  ASSERT_TRUE(f2);
  expect_bitwise_equal(*f1, *f2);
}

// ------------------------------- schedule invariance (8-seed chaos sweep) --

namespace {

Matrix assemble_lower_factor(const tlr::TlrMatrix& m) {
  Matrix l(m.n(), m.n());
  for (int i = 0; i < m.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      Matrix blk = m.at(i, j).to_dense();
      for (int c = 0; c < blk.cols(); ++c)
        for (int r = 0; r < blk.rows(); ++r) {
          if (i == j && r < c) continue;
          l(m.row_offset(i) + r, m.row_offset(j) + c) = blk(r, c);
        }
    }
  return l;
}

}  // namespace

TEST(ScheduleInvariance, HotPathSurvivesEightSeedChaosSweep) {
  // Each updated low-rank tile is compressed once, by its last update, on
  // whichever worker runs it; a chaos-mode factorization at 4 threads must
  // still reproduce the 1-thread factor bit for bit.
  const int n = 160;
  const int b = 40;
  const double tol = 1e-6;
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DMatern, n, 17, 1e-1);
  auto factor_once = [&](int threads, const rt::PerturbConfig& perturb) {
    auto a = tlr::TlrMatrix::from_problem(prob, b, {tol, 1 << 30});
    core::CholeskyConfig cfg;
    cfg.acc = {tol, 1 << 30};
    cfg.band_size = 2;
    cfg.nthreads = threads;
    cfg.perturb = perturb;
    cfg.faults = resil::FaultConfig{};
    cfg.watchdog = resil::WatchdogConfig{};
    core::factorize(a, &prob, cfg);
    return assemble_lower_factor(a);
  };
  const Matrix ref = factor_once(1, rt::PerturbConfig{});
  for (int seed = 1; seed <= 8; ++seed) {
    const Matrix got =
        factor_once(4, rt::PerturbConfig::with_seed(seed));
    double max_diff = 0.0;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        max_diff = std::max(max_diff, std::abs(got(i, j) - ref(i, j)));
    EXPECT_EQ(max_diff, 0.0) << "chaos seed " << seed
                             << " diverged from the sequential factor";
  }
}
