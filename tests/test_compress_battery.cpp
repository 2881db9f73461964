// Compression correctness battery (ctest label "compress").
//
// Property-based fuzzing of every compression backend over synthetic
// matrices with prescribed singular-value decay, degenerate-shape and
// non-finite-input edge cases, the adaptive randomized engine's unit
// contract (estimator early stop, policy gates, fallback, PTLR_COMPRESS
// parsing), seed-stability regressions for the randomized paths, and an
// 8-seed chaos sweep asserting the adaptive hot path is schedule-invariant
// end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "compress/adaptive.hpp"
#include "compress/compress.hpp"
#include "compress/methods.hpp"
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
// values are exactly the prescribed spectrum, the ground truth every
// backend is judged against.
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

class SpectrumFuzz
    : public ::testing::TestWithParam<std::tuple<Method, Spectrum, double>> {
};

TEST_P(SpectrumFuzz, ErrorMeetsToleranceAndRankIsNearMinimal) {
  const auto [method, kind, tol] = GetParam();
  Rng rng(101 + static_cast<int>(kind) * 7 +
          static_cast<int>(method) * 31);
  const int m = 64, n = 48;
  const auto s = make_spectrum(kind, std::min(m, n));
  Matrix a = matrix_with_spectrum(m, n, s, rng);

  Rng mrng(5);
  auto f = compress_with(method, a.view(), {tol, 1 << 30}, mrng);
  ASSERT_TRUE(f) << to_string(method) << " on " << spectrum_name(kind);

  // Error bound: deterministic backends land essentially at the
  // truncation target; the randomized/heuristic ones carry sketch slack.
  const double factor = method == Method::kCpqrSvd ? 2.0 : 5.0;
  EXPECT_LE(approximation_error(a.view(), *f), tol * factor)
      << to_string(method) << " on " << spectrum_name(kind);

  // Rank bound against the spectrum oracle: no fewer columns than an
  // error ≤ factor·tol admits, no more than truncating at the tightest
  // internal budget (tol/2) plus sketch slack could keep.
  const int k_lo = truncation_rank(s, tol * factor);
  const int k_hi = truncation_rank(s, tol * 0.5) + 4;
  EXPECT_GE(f->rank(), k_lo) << to_string(method) << " on "
                             << spectrum_name(kind);
  EXPECT_LE(f->rank(), k_hi) << to_string(method) << " on "
                             << spectrum_name(kind);
}

INSTANTIATE_TEST_SUITE_P(
    Battery, SpectrumFuzz,
    ::testing::Combine(
        ::testing::Values(Method::kCpqrSvd, Method::kRsvd, Method::kAca,
                          Method::kAdaptiveRsvd),
        ::testing::Values(Spectrum::kExactLowRank, Spectrum::kPlateau,
                          Spectrum::kSlowDecay, Spectrum::kNoiseFloor),
        ::testing::Values(1e-4, 1e-6)));

// --------------------------------------------------- degenerate shapes ----

class MethodEdge : public ::testing::TestWithParam<Method> {};

TEST_P(MethodEdge, SingleRowTile) {
  Rng rng(31);
  Matrix a(1, 40);
  fill_uniform(a.view(), rng);
  Rng mrng(1);
  auto f = compress_with(GetParam(), a.view(), {1e-10, 1 << 30}, mrng);
  ASSERT_TRUE(f) << to_string(GetParam());
  EXPECT_LE(f->rank(), 1);
  EXPECT_LE(approximation_error(a.view(), *f), 1e-9);
}

TEST_P(MethodEdge, SingleColumnTile) {
  Rng rng(32);
  Matrix a(40, 1);
  fill_uniform(a.view(), rng);
  Rng mrng(2);
  auto f = compress_with(GetParam(), a.view(), {1e-10, 1 << 30}, mrng);
  ASSERT_TRUE(f) << to_string(GetParam());
  EXPECT_LE(f->rank(), 1);
  EXPECT_LE(approximation_error(a.view(), *f), 1e-9);
}

TEST_P(MethodEdge, ZeroTileHasRankZero) {
  Matrix a(30, 20);
  Rng mrng(3);
  auto f = compress_with(GetParam(), a.view(), {1e-12, 1 << 30}, mrng);
  ASSERT_TRUE(f) << to_string(GetParam());
  EXPECT_EQ(f->rank(), 0);
}

TEST_P(MethodEdge, RankCapExhaustionReturnsNullopt) {
  Rng rng(33);
  Matrix a(40, 40);
  fill_uniform(a.view(), rng);  // full rank, incompressible at 1e-12
  Rng mrng(4);
  auto f = compress_with(GetParam(), a.view(), {1e-12, 6}, mrng);
  EXPECT_FALSE(f.has_value()) << to_string(GetParam());
}

TEST_P(MethodEdge, NaNInputFailsLoudly) {
  Matrix a(12, 10);
  a(3, 4) = std::numeric_limits<double>::quiet_NaN();
  Rng mrng(5);
  EXPECT_THROW(compress_with(GetParam(), a.view(), {1e-8, 1 << 30}, mrng),
               ptlr::Error)
      << to_string(GetParam());
}

TEST_P(MethodEdge, InfInputFailsLoudly) {
  Matrix a(12, 10);
  a(7, 2) = std::numeric_limits<double>::infinity();
  Rng mrng(6);
  EXPECT_THROW(compress_with(GetParam(), a.view(), {1e-8, 1 << 30}, mrng),
               ptlr::Error)
      << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodEdge,
                         ::testing::Values(Method::kCpqrSvd, Method::kRsvd,
                                           Method::kAca,
                                           Method::kAdaptiveRsvd));

// ------------------------------------------------- adaptive engine unit ----

TEST(AdaptiveRsvd, RecoversExactLowRankWithStats) {
  Rng rng(41);
  Matrix a = random_lowrank(96, 80, 9, 1.0, rng);
  Rng mrng(7);
  AdaptiveStats st;
  auto f = compress_adaptive_rsvd(a.view(), {1e-8, 1 << 30}, mrng, &st);
  ASSERT_TRUE(f);
  EXPECT_EQ(f->rank(), 9);
  EXPECT_LE(approximation_error(a.view(), *f), 1e-7);
  EXPECT_TRUE(st.attempted);
  EXPECT_EQ(st.rank, 9);
  EXPECT_GE(st.sketch_cols, 9);
  EXPECT_LE(st.est_residual, 1e-8);
}

TEST(AdaptiveRsvd, EstimatorStopsSketchEarly) {
  Rng rng(42);
  Matrix a = random_lowrank(128, 128, 5, 1.0, rng);
  Rng mrng(8);
  AdaptiveStats st;
  auto f = compress_adaptive_rsvd(a.view(), {1e-8, 1 << 30}, mrng, &st);
  ASSERT_TRUE(f);
  EXPECT_EQ(f->rank(), 5);
  // Two 16-column rounds certify a rank-5 block; nowhere near the full
  // 128 columns a fixed-width sketch of the dimension would draw.
  EXPECT_LE(st.sketch_cols, 48);
}

TEST(AdaptiveRsvd, HonoursPolicyBlockSize) {
  Rng rng(43);
  Matrix a = random_lowrank(64, 64, 5, 1.0, rng);
  Accuracy acc{1e-8, 1 << 30};
  acc.policy.block = 4;
  Rng mrng(9);
  AdaptiveStats st;
  auto f = compress_adaptive_rsvd(a.view(), acc, mrng, &st);
  ASSERT_TRUE(f);
  EXPECT_EQ(f->rank(), 5);
  EXPECT_LE(st.sketch_cols, 16);  // 4-column rounds, not 16-column ones
}

TEST(AdaptiveRsvd, CapBoundsTheSketchAndFailsCleanly) {
  Rng rng(44);
  Matrix a(64, 64);
  fill_uniform(a.view(), rng);
  Rng mrng(10);
  AdaptiveStats st;
  auto f = compress_adaptive_rsvd(a.view(), {1e-12, 8}, mrng, &st);
  EXPECT_FALSE(f.has_value());
  EXPECT_TRUE(st.attempted);
  // The basis stops one block past the cap (maxrank 8 + block 16), so at
  // most three 16-column probe rounds are ever drawn on a full-rank block.
  EXPECT_LE(st.sketch_cols, 3 * 16);
}

namespace {

// Rank-k factor inflated to rank 2k representing the same matrix — the
// shape of the hot-path concatenated (C | P) operand.
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

TEST(AdaptiveRsvd, RecompressReducesInflatedRankInProductForm) {
  Rng rng(45);
  Matrix a = random_lowrank(72, 64, 6, 1.0, rng);
  auto exact = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(exact);
  LowRankFactor inflated = inflate_factor(*exact);
  ASSERT_EQ(inflated.rank(), 12);
  Rng mrng(11);
  AdaptiveStats st;
  const int knew = recompress_adaptive(inflated, {1e-10, 1 << 30}, mrng, &st);
  EXPECT_EQ(knew, 6);
  EXPECT_EQ(inflated.rank(), 6);
  EXPECT_LE(approximation_error(a.view(), inflated), 1e-9);
  EXPECT_TRUE(st.attempted);
}

// ------------------------------------------------ certified tolerance ----

namespace {

// The first sub-diagonal tile of the st-3D-exp problem bench_compression
// times at default scale (N = 4096, seed 42, nugget 1e-2).
Matrix st3d_tile(int b) {
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DExp, 4096, 42, 1e-2);
  return prob.block(b, 0, b, b);
}

}  // namespace

TEST(Aca, DenseBlockMeetsToleranceOnCovarianceTiles) {
  // On these tiles a ‖u‖·‖v‖ stop followed by a rounding at the full tol
  // ends at 1.06 and 1.38·tol (1e-6); the explicit residual must certify
  // the bound at the price of at most a column or two of rank.
  for (const int b : {128, 256}) {
    const Matrix a = st3d_tile(b);
    for (const double tol : {1e-6, 1e-8}) {
      const Accuracy acc{tol, 1 << 30};
      const auto f = compress_aca(a.view(), acc);
      const auto ref = compress(a.view(), acc);
      ASSERT_TRUE(f && ref);
      EXPECT_LE(approximation_error(a.view(), *f), tol)
          << "b=" << b << " tol=" << tol;
      EXPECT_LE(f->rank(), ref->rank() + 2) << "b=" << b << " tol=" << tol;
    }
  }
}

TEST(Aca, UncertifiedCrossFallsBackToCpqr) {
  // A full-rank block at a tight tol: the cross stops at 2·maxrank terms
  // with the residual above tol/10, and compress() decides — here that
  // the tile stays dense; with the cap lifted, the certified factor.
  Rng rng(47);
  Matrix a(48, 48);
  fill_uniform(a.view(), rng);
  EXPECT_FALSE(compress_aca(a.view(), {1e-10, 10}).has_value());
  const auto f = compress_aca(a.view(), {1e-10, 1 << 30});
  ASSERT_TRUE(f);
  EXPECT_LE(approximation_error(a.view(), *f), 1e-10);
}

TEST(AdaptiveRsvd, ChargedEstimateMeetsToleranceAcrossSeeds) {
  // Charged at 1×, the estimate lets 16 of 200 seeds end above tol on
  // this tile (by up to 5.4%); charged at 2×, none of 64 may.
  const Matrix a = st3d_tile(128);
  const Accuracy acc{1e-6, 1 << 30};
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed);
    const auto f = compress_adaptive_rsvd(a.view(), acc, rng);
    ASSERT_TRUE(f);
    EXPECT_LE(approximation_error(a.view(), *f), acc.tol) << "seed " << seed;
  }
}

TEST(AdaptiveRsvd, ProductFormMeetsToleranceAcrossSeeds) {
  // The same charge bounds recompress_adaptive: rounding a rank-inflated
  // factor stays within tol of the matrix the factor represents.
  const Matrix a = st3d_tile(128);
  const auto exact = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(exact);
  const LowRankFactor inflated = inflate_factor(*exact);
  const Matrix represented = inflated.to_dense();
  const Accuracy acc{1e-6, 1 << 30};
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    LowRankFactor f = inflated;
    Rng rng(seed);
    ASSERT_GE(recompress_adaptive(f, acc, rng), 0) << "seed " << seed;
    EXPECT_LE(approximation_error(represented.view(), f), acc.tol)
        << "seed " << seed;
  }
}

TEST(AdaptiveRsvd, RecompressWithPolicyFollowsGates) {
  Rng rng(46);
  Matrix a = random_lowrank(72, 64, 6, 1.0, rng);
  auto exact = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(exact);

  // Gates open: the adaptive engine runs and reduces the rank.
  {
    LowRankFactor inflated = inflate_factor(*exact);
    Accuracy acc{1e-10, 1 << 30};
    acc.policy = CompressPolicy::parse("method=adaptive,min_dim=8,min_rank=2");
    AdaptiveStats st;
    EXPECT_EQ(recompress_with_policy(inflated, acc, &st), 6);
    EXPECT_TRUE(st.attempted);
    EXPECT_LE(approximation_error(a.view(), inflated), 1e-9);
  }
  // min_dim gate closed: deterministic path, never attempted.
  {
    LowRankFactor inflated = inflate_factor(*exact);
    Accuracy acc{1e-10, 1 << 30};
    acc.policy = CompressPolicy::parse("method=adaptive,min_dim=256");
    AdaptiveStats st;
    EXPECT_EQ(recompress_with_policy(inflated, acc, &st), 6);
    EXPECT_FALSE(st.attempted);
  }
  // Default policy (cpqr): identical to plain recompress().
  {
    LowRankFactor inflated = inflate_factor(*exact);
    AdaptiveStats st;
    EXPECT_EQ(recompress_with_policy(inflated, {1e-10, 1 << 30}, &st), 6);
    EXPECT_FALSE(st.attempted);
  }
}

TEST(AdaptiveRsvd, RankZeroFactorIsStable) {
  LowRankFactor f{Matrix(20, 0), Matrix(20, 0)};
  Rng mrng(12);
  EXPECT_EQ(recompress_adaptive(f, {1e-8, 1 << 30}, mrng), 0);
}

TEST(AdaptiveRsvd, NonFiniteInputThrows) {
  Matrix a(16, 16);
  a(0, 0) = std::numeric_limits<double>::quiet_NaN();
  Rng mrng(13);
  EXPECT_THROW(compress_adaptive_rsvd(a.view(), {1e-8, 1 << 30}, mrng),
               ptlr::Error);
}

// ----------------------------------------------------- policy parsing ----

TEST(CompressPolicy, ParseDefaults) {
  const CompressPolicy p = CompressPolicy::parse(nullptr);
  EXPECT_EQ(p.method, Method::kCpqrSvd);
  EXPECT_EQ(p.min_dim, 64);
  EXPECT_EQ(p.min_rank, 12);
  EXPECT_EQ(p.block, 16);
}

TEST(CompressPolicy, ParseBareMethodToken) {
  EXPECT_EQ(CompressPolicy::parse("adaptive").method,
            Method::kAdaptiveRsvd);
  EXPECT_EQ(CompressPolicy::parse("cpqr").method, Method::kCpqrSvd);
  EXPECT_EQ(CompressPolicy::parse("rsvd").method, Method::kRsvd);
  EXPECT_EQ(CompressPolicy::parse("aca").method, Method::kAca);
}

TEST(CompressPolicy, ParseKeyValueSpec) {
  const CompressPolicy p = CompressPolicy::parse(
      "method=adaptive,seed=7,min_dim=96,min_rank=24,block=8");
  EXPECT_EQ(p.method, Method::kAdaptiveRsvd);
  EXPECT_EQ(p.seed, 7u);
  EXPECT_EQ(p.min_dim, 96);
  EXPECT_EQ(p.min_rank, 24);
  EXPECT_EQ(p.block, 8);
}

TEST(CompressPolicy, TyposThrowInsteadOfDefaulting) {
  EXPECT_THROW(CompressPolicy::parse("adpative"), ptlr::Error);
  EXPECT_THROW(CompressPolicy::parse("method=cpqr,bogus=1"), ptlr::Error);
  EXPECT_THROW(CompressPolicy::parse("block=0"), ptlr::Error);
  EXPECT_THROW(CompressPolicy::parse("seed=xyz"), ptlr::Error);
}

TEST(SiteSeed, PureAndSiteSeparating) {
  EXPECT_EQ(site_seed(1, 2, 3), site_seed(1, 2, 3));
  EXPECT_NE(site_seed(1, 2, 3), site_seed(1, 3, 2));
  EXPECT_NE(site_seed(1, 2, 3), site_seed(2, 2, 3));
  EXPECT_NE(site_seed(1, 2, 3), site_seed(1, 2, 4));
}

// ------------------------------------------------- seed stability ----

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

TEST(SeedStability, AdaptiveCompressionIsBitwiseReproducible) {
  Rng rng(51);
  Matrix a = random_lowrank(80, 64, 12, 1e-6, rng);
  Rng r1(42), r2(42);
  auto f1 = compress_adaptive_rsvd(a.view(), {1e-8, 1 << 30}, r1);
  auto f2 = compress_adaptive_rsvd(a.view(), {1e-8, 1 << 30}, r2);
  ASSERT_TRUE(f1);
  ASSERT_TRUE(f2);
  expect_bitwise_equal(*f1, *f2);
}

TEST(SeedStability, RsvdCompressionIsBitwiseReproducible) {
  Rng rng(52);
  Matrix a = random_lowrank(80, 64, 12, 1e-6, rng);
  Rng r1(42), r2(42);
  auto f1 = compress_rsvd(a.view(), {1e-8, 1 << 30}, r1);
  auto f2 = compress_rsvd(a.view(), {1e-8, 1 << 30}, r2);
  ASSERT_TRUE(f1);
  ASSERT_TRUE(f2);
  expect_bitwise_equal(*f1, *f2);
}

TEST(SeedStability, RecompressWithPolicyIsBitwiseReproducible) {
  Rng rng(53);
  Matrix a = random_lowrank(72, 72, 8, 1.0, rng);
  auto exact = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(exact);
  Accuracy acc{1e-10, 1 << 30};
  acc.policy = CompressPolicy::parse("method=adaptive,min_dim=8,min_rank=2");
  LowRankFactor f1 = inflate_factor(*exact);
  LowRankFactor f2 = inflate_factor(*exact);
  recompress_with_policy(f1, acc);
  recompress_with_policy(f2, acc);
  expect_bitwise_equal(f1, f2);
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

TEST(ScheduleInvariance, AdaptiveHotPathSurvivesEightSeedChaosSweep) {
  // The randomized recompression draws from per-tile site seeds fixed at
  // graph construction, so a chaos-mode factorization at 4 threads must
  // reproduce the 1-thread factor bit for bit — the same contract the
  // fault injector honours.
  const int n = 160;
  const int b = 40;
  const double tol = 1e-6;
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DMatern, n, 17, 1e-1);
  auto factor_once = [&](int threads, const rt::PerturbConfig& perturb) {
    auto a = tlr::TlrMatrix::from_problem(prob, b, {tol, 1 << 30});
    core::CholeskyConfig cfg;
    cfg.acc = {tol, 1 << 30};
    cfg.compress =
        CompressPolicy::parse("method=adaptive,min_dim=16,min_rank=2,block=8");
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
