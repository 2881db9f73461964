// Unit tests for ptlr::stars — Bessel K, Matérn kernels, geometries,
// covariance problem generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dense/lapack.hpp"
#include "dense/util.hpp"
#include "stars/besselk.hpp"
#include "stars/geometry.hpp"
#include "stars/kernels.hpp"
#include "stars/problem.hpp"
#include "support/reference_lapack.hpp"

using namespace ptlr::stars;
using ptlr::Rng;

namespace {

double k_half(double nu_offset, double x) {
  // Closed forms: K_{1/2}(x) = sqrt(pi/(2x)) e^{-x};
  // K_{3/2} = K_{1/2} (1 + 1/x); K_{5/2} = K_{1/2} (1 + 3/x + 3/x^2).
  const double base = std::sqrt(M_PI / (2.0 * x)) * std::exp(-x);
  if (nu_offset == 0) return base;
  if (nu_offset == 1) return base * (1.0 + 1.0 / x);
  return base * (1.0 + 3.0 / x + 3.0 / (x * x));
}

}  // namespace

// ------------------------------------------------------------- BesselK ----

class BesselHalfInteger
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BesselHalfInteger, MatchesClosedForm) {
  const int off = std::get<0>(GetParam());
  const double x = std::get<1>(GetParam());
  const double nu = 0.5 + off;
  const double want = k_half(off, x);
  EXPECT_NEAR(bessel_k(nu, x) / want, 1.0, 1e-12)
      << "nu=" << nu << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(
    SmallAndLargeArguments, BesselHalfInteger,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.01, 0.1, 0.5, 1.0, 1.9, 2.0, 2.1,
                                         5.0, 10.0, 50.0)));

TEST(BesselK, IntegerOrderReferenceValues) {
  // Reference values (Abramowitz & Stegun / mpmath, 15 digits).
  EXPECT_NEAR(bessel_k(0.0, 1.0), 0.421024438240708, 1e-12);
  EXPECT_NEAR(bessel_k(1.0, 1.0), 0.601907230197235, 1e-12);
  EXPECT_NEAR(bessel_k(0.0, 0.1), 2.427069024702017, 1e-12);
  EXPECT_NEAR(bessel_k(1.0, 5.0), 0.00404461344545216, 1e-14);
  EXPECT_NEAR(bessel_k(2.0, 3.0), 0.0615104584717420, 1e-13);
}

TEST(BesselK, RecurrenceHolds) {
  // K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x).
  for (double nu : {0.3, 0.7, 1.2, 2.6}) {
    for (double x : {0.4, 1.7, 3.3, 8.0}) {
      const double lhs = bessel_k(nu + 1.0, x);
      const double rhs = bessel_k(nu - 1.0 < 0 ? std::abs(nu - 1.0) : nu - 1.0, x) +
                         2.0 * nu / x * bessel_k(nu, x);
      EXPECT_NEAR(lhs / rhs, 1.0, 1e-10) << "nu=" << nu << " x=" << x;
    }
  }
}

TEST(BesselK, ScaledVariantAvoidsUnderflow) {
  // K_nu(800) underflows, exp(x) K_nu(x) must not.
  const double v = bessel_k_scaled(0.5, 800.0);
  EXPECT_NEAR(v, std::sqrt(M_PI / 1600.0), 1e-12);
  EXPECT_GT(v, 0.0);
}

TEST(BesselK, InvalidArgumentsThrow) {
  EXPECT_THROW(bessel_k(0.5, 0.0), ptlr::Error);
  EXPECT_THROW(bessel_k(0.5, -1.0), ptlr::Error);
  EXPECT_THROW(bessel_k(-0.5, 1.0), ptlr::Error);
}

// -------------------------------------------------------------- Matérn ----

TEST(Matern, HalfSmoothnessIsExponential) {
  // Section IV: θ = (1, 0.1, 0.5) reduces to C(r) = exp(-r/0.1).
  Matern m(1.0, 0.1, 0.5);
  Exponential e(1.0, 0.1);
  for (double r : {0.0, 0.01, 0.05, 0.2, 0.9, 2.0}) {
    EXPECT_NEAR(m(r), e(r), 1e-14) << "r=" << r;
  }
}

TEST(Matern, GenericSmoothnessMatchesClosedForm32) {
  Matern generic(2.0, 0.3, 1.5);
  for (double r : {0.01, 0.1, 0.5, 1.0}) {
    const double s = r / 0.3;
    const double want = 2.0 * (1.0 + s) * std::exp(-s);
    EXPECT_NEAR(generic(r), want, 1e-12);
  }
}

TEST(Matern, GenericOrderViaBessel) {
  // nu = 1.0 has no closed form; sanity: positive, decreasing, C(0)=theta1.
  Matern m(1.0, 0.1, 1.0);
  EXPECT_DOUBLE_EQ(m(0.0), 1.0);
  double prev = m(1e-6);
  EXPECT_NEAR(prev, 1.0, 1e-3);
  for (double r = 0.02; r < 1.0; r += 0.02) {
    const double v = m(r);
    EXPECT_LT(v, prev);
    EXPECT_GT(v, 0.0);
    prev = v;
  }
}

TEST(Matern, RejectsNonPositiveParameters) {
  EXPECT_THROW(Matern(0.0, 0.1, 0.5), ptlr::Error);
  EXPECT_THROW(Matern(1.0, -0.1, 0.5), ptlr::Error);
  EXPECT_THROW(Matern(1.0, 0.1, 0.0), ptlr::Error);
}

TEST(Kernels, SquaredExponentialDecaysFasterThanExponential) {
  Exponential e(1.0, 0.1);
  SquaredExponential q(1.0, 0.1);
  EXPECT_LT(q(0.5), e(0.5));
  EXPECT_DOUBLE_EQ(q(0.0), 1.0);
}

// ------------------------------------------------------------ Geometry ----

TEST(Geometry, Grid3dProducesRequestedCount) {
  Rng rng(1);
  for (int n : {1, 7, 100, 1000}) {
    EXPECT_EQ(static_cast<int>(grid3d(n, rng).size()), n);
  }
}

TEST(Geometry, Grid2dPointsInUnitSquare) {
  Rng rng(2);
  for (const auto& p : grid2d(500, rng)) {
    EXPECT_GE(p.x, -0.05);
    EXPECT_LE(p.x, 1.05);
    EXPECT_GE(p.y, -0.05);
    EXPECT_LE(p.y, 1.05);
    EXPECT_DOUBLE_EQ(p.z, 0.0);
  }
}

TEST(Geometry, MortonSortImprovesIndexLocality) {
  // Mean distance between consecutive points should be far below the mean
  // distance between random pairs after a Morton sort.
  Rng rng(3);
  auto pts = uniform_cloud(2000, 3, rng);
  double consecutive = 0.0;
  for (std::size_t i = 0; i + 1 < pts.size(); ++i)
    consecutive += distance(pts[i], pts[i + 1]);
  consecutive /= static_cast<double>(pts.size() - 1);
  double random_pairs = 0.0;
  for (int t = 0; t < 2000; ++t) {
    const auto a = static_cast<std::size_t>(rng.integer(0, 1999));
    const auto b = static_cast<std::size_t>(rng.integer(0, 1999));
    random_pairs += distance(pts[a], pts[b]);
  }
  random_pairs /= 2000.0;
  EXPECT_LT(consecutive, 0.3 * random_pairs);
}

TEST(Geometry, DistanceIsEuclidean) {
  Point a{0, 0, 0}, b{3, 4, 0};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  Point c{1, 2, 2};
  EXPECT_DOUBLE_EQ(distance(a, c), 3.0);
}

// ------------------------------------------------------------- Problem ----

TEST(Problem, MatrixIsSymmetricWithNuggetOnDiagonal) {
  auto prob = make_problem(ProblemKind::kSt3DExp, 64, 7, 0.01);
  for (int i = 0; i < 64; i += 13)
    for (int j = 0; j < 64; j += 7) {
      EXPECT_DOUBLE_EQ(prob.entry(i, j), prob.entry(j, i));
    }
  EXPECT_DOUBLE_EQ(prob.entry(5, 5), 1.0 + 0.01);
}

TEST(Problem, BlockMatchesEntries) {
  auto prob = make_problem(ProblemKind::kSt3DExp, 50, 9);
  auto blk = prob.block(10, 20, 8, 6);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 8; ++i)
      EXPECT_DOUBLE_EQ(blk(i, j), prob.entry(10 + i, 20 + j));
}

TEST(Problem, DenseOperatorIsSpd) {
  auto prob = make_problem(ProblemKind::kSt3DExp, 96, 11);
  auto a = prob.block(0, 0, 96, 96);
  EXPECT_NO_THROW(ptlr::dense::potrf(ptlr::dense::Uplo::Lower, a.view()));
}

TEST(Problem, OffDiagonalBlocksAreDataSparse) {
  // The premise of the whole paper: far-off-diagonal blocks of the Morton-
  // ordered covariance have low numerical rank. At laptop scale (few
  // hundred points) the ε-rank of the kernel block is set by the geometry,
  // not the tile size, so we use a correlation length proportionate to the
  // resolved scale; the paper's 0.1 corresponds to millions of locations.
  const int n = 256, b = 64;
  auto prob = make_st3d_matern(n, 1.0, 0.5, 0.5, 13);
  auto far_block = prob.block(n - b, 0, b, b);
  auto s = ptlr::testing::singular_values(far_block.view());
  int rank = 0;
  double tail2 = 0.0;
  for (int i = b - 1; i >= 0; --i) tail2 += s[i] * s[i];
  double run = 0.0;
  for (int i = b - 1; i >= 0; --i) {
    run += s[i] * s[i];
    if (std::sqrt(run) > 1e-3) {
      rank = i + 1;
      break;
    }
  }
  (void)tail2;
  EXPECT_LT(rank, b / 2) << "far block should be numerically low-rank";
}

TEST(Problem, SmootherKernelsHaveLowerRank) {
  const int n = 216, b = 54;
  auto rough = make_problem(ProblemKind::kSt3DExp, n, 17);
  auto smooth = make_problem(ProblemKind::kSt3DSqExp, n, 17);
  auto blk_r = rough.block(n - b, 0, b, b);
  auto blk_s = smooth.block(n - b, 0, b, b);
  auto sr = ptlr::testing::singular_values(blk_r.view());
  auto ss = ptlr::testing::singular_values(blk_s.view());
  // Compare the decay via the index where sigma falls below 1e-8*sigma0.
  auto decay_rank = [](const std::vector<double>& s) {
    for (std::size_t i = 0; i < s.size(); ++i)
      if (s[i] < 1e-8 * s[0]) return static_cast<int>(i);
    return static_cast<int>(s.size());
  };
  EXPECT_LE(decay_rank(ss), decay_rank(sr));
}

TEST(Problem, SyntheticObservationsMatchDimension) {
  auto prob = make_problem(ProblemKind::kSt2DExp, 40, 3);
  Rng rng(5);
  EXPECT_EQ(prob.synthetic_observations(rng).size(), 40u);
}

TEST(Problem, PresetNames) {
  EXPECT_EQ(to_string(ProblemKind::kSt3DExp), "st-3D-exp");
  EXPECT_EQ(to_string(ProblemKind::kSt2DExp), "st-2D-exp");
}

// ------------------------------------------- additional applications ----

TEST(Kernels, ElectrostaticsIsCoulomb) {
  Electrostatics k(100.0);
  EXPECT_DOUBLE_EQ(k(0.0), 100.0);
  EXPECT_DOUBLE_EQ(k(0.5), 2.0);
  EXPECT_DOUBLE_EQ(k(2.0), 0.5);
}

TEST(Kernels, ElectrodynamicsIsSinc) {
  Electrodynamics k(3.0);
  EXPECT_DOUBLE_EQ(k(0.0), 3.0);
  EXPECT_NEAR(k(1.0), std::sin(3.0), 1e-15);
  EXPECT_NEAR(k(0.5), std::sin(1.5) / 0.5, 1e-15);
}

TEST(Problem, ElectrostaticsBlocksAreCompressible) {
  auto prob = make_problem(ProblemKind::kElectrostatics3D, 216, 41);
  auto far = prob.block(162, 0, 54, 54);
  auto s = ptlr::testing::singular_values(far.view());
  // Smooth far-field: geometric decay of the spectrum (1/r between two
  // separated octants of the unit cube at ~200 points decays a bit over
  // half a decade per singular value).
  EXPECT_LT(s[20] / s[0], 1e-3);
  EXPECT_LT(s[40] / s[0], 1e-7);
}

TEST(Problem, ElectrodynamicsHarderThanElectrostatics) {
  auto es = make_problem(ProblemKind::kElectrostatics3D, 216, 43);
  auto ed = make_problem(ProblemKind::kElectrodynamics3D, 216, 43);
  auto bs = es.block(162, 0, 54, 54);
  auto bd = ed.block(162, 0, 54, 54);
  auto ss = ptlr::testing::singular_values(bs.view());
  auto sd = ptlr::testing::singular_values(bd.view());
  // Oscillatory kernels decay more slowly (relative spectrum).
  EXPECT_GT(sd[10] / sd[0], ss[10] / ss[0]);
}

TEST(Problem, NewPresetNames) {
  EXPECT_EQ(to_string(ProblemKind::kElectrostatics3D), "electrostatics-3D");
  EXPECT_EQ(to_string(ProblemKind::kElectrodynamics3D),
            "electrodynamics-3D");
}

// ----------------------------------------------------------- Generator ----
// The tile generator: one kernel batch call per column (eval), one column
// routine behind fill_block() and entry(), and the closed forms' exp.

namespace {

// Every kernel the presets use, plus the Bessel-based Matérn.
std::vector<std::pair<std::string, std::shared_ptr<const CovarianceKernel>>>
all_kernels() {
  return {{"matern0.5", std::make_shared<Matern>(1.3, 0.1, 0.5)},
          {"matern1.5", std::make_shared<Matern>(0.7, 0.2, 1.5)},
          {"matern2.5", std::make_shared<Matern>(2.0, 0.05, 2.5)},
          {"matern1.0", std::make_shared<Matern>(1.0, 0.1, 1.0)},
          {"exponential", std::make_shared<Exponential>(1.1, 0.3)},
          {"sqexp", std::make_shared<SquaredExponential>(0.9, 0.1)},
          {"electrostatics", std::make_shared<Electrostatics>(50.0)},
          {"electrodynamics", std::make_shared<Electrodynamics>(12.0)}};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// |got − want| in units of the spacing of doubles at `want` (the finer one
// at a binade edge; the subnormal spacing at and below DBL_MIN).
double ulp_error(double got, long double want) {
  const double a = std::fabs(static_cast<double>(want));
  const double up = std::nextafter(a, INFINITY) - a;
  const double down = a - std::nextafter(a, 0.0);
  const double ulp = down > 0.0 ? std::min(up, down) : up;
  return static_cast<double>(std::fabs(static_cast<long double>(got) - want) /
                             ulp);
}

}  // namespace

TEST(Generator, BatchEvalMatchesScalarBitwise) {
  // Lengths cover the vector body and every scalar remainder; the batch
  // starts at odd offsets too, so no lane alignment is assumed.
  Rng rng(61);
  std::vector<double> r(1031);
  for (auto& v : r) v = rng.uniform(0.0, 2.0);
  r[0] = 0.0;
  r[1] = 1e-300;
  r[2] = 80.0;  // past exp's underflow cutoff for every length scale here
  for (const auto& [name, kernel] : all_kernels()) {
    for (const int offset : {0, 1, 3}) {
      for (const int n : {1, 2, 7, 8, 9, 17, 128, 1000}) {
        const double* batch = r.data() + offset;
        std::vector<double> out(static_cast<std::size_t>(n), -1.0);
        kernel->eval(batch, out.data(), n);
        for (int i = 0; i < n; ++i) {
          ASSERT_TRUE(same_bits(out[static_cast<std::size_t>(i)],
                                (*kernel)(batch[i])))
              << name << " offset " << offset << " n " << n << " i " << i;
        }
      }
    }
  }
}

TEST(Generator, EntryMatchesBlockBitwise) {
  // Blocks on, next to and away from the diagonal, of odd shapes: every
  // element equals entry() of its global position, nugget included.
  const ProblemKind kinds[] = {
      ProblemKind::kSt3DExp,          ProblemKind::kSt2DExp,
      ProblemKind::kSt3DSqExp,        ProblemKind::kSt3DMatern,
      ProblemKind::kElectrostatics3D, ProblemKind::kElectrodynamics3D};
  struct Box {
    int row0, col0, rows, cols;
  };
  const Box boxes[] = {{0, 0, 37, 37}, {20, 3, 41, 19}, {5, 30, 9, 50},
                       {90, 10, 30, 17}, {119, 119, 1, 1}};
  for (const ProblemKind kind : kinds) {
    const auto prob = make_problem(kind, 120, 19);
    for (const Box& b : boxes) {
      const auto blk = prob.block(b.row0, b.col0, b.rows, b.cols);
      for (int j = 0; j < b.cols; ++j)
        for (int i = 0; i < b.rows; ++i)
          ASSERT_TRUE(
              same_bits(blk(i, j), prob.entry(b.row0 + i, b.col0 + j)))
              << to_string(kind) << " at (" << b.row0 + i << ", "
              << b.col0 + j << ")";
    }
  }
  // Taller than the generator's 256-row distance buffer, with the
  // diagonal in the second chunk.
  const auto tall = make_problem(ProblemKind::kSt3DExp, 700, 19);
  const auto tblk = tall.block(0, 280, 700, 9);
  for (int j = 0; j < 9; ++j)
    for (int i = 0; i < 700; ++i)
      ASSERT_TRUE(same_bits(tblk(i, j), tall.entry(i, 280 + j)))
          << "tall at (" << i << ", " << 280 + j << ")";
  Rng rng(23);
  const CrossCovariance cross(grid3d(70, rng), grid3d(45, rng),
                              std::make_shared<Matern>(1.0, 0.1, 0.5));
  const auto blk = cross.block(11, 6, 50, 33);
  for (int j = 0; j < 33; ++j)
    for (int i = 0; i < 50; ++i)
      ASSERT_TRUE(same_bits(blk(i, j), cross.entry(11 + i, 6 + j)))
          << "cross at (" << 11 + i << ", " << 6 + j << ")";
}

TEST(Generator, ClosedFormsTrackLongDoubleExp) {
  // s = r/ℓ (the exponent's magnitude) sampled over [0, 745] — exp's whole
  // range down to the last subnormal — and densely over [0, 5]. The
  // reference keeps each kernel's own double arithmetic around exp (the
  // argument, the Matérn prefactor) and takes expl of the same argument.
  // A kernel that is θ1·e^x with θ1 = 1 is the exp itself: within 1 ULP.
  // The Matérn ν = 1.5 and 2.5 forms round one more product: within
  // 2 ULP while e^-s is normal (s <= 708). Past it the prefactor scales
  // the subnormal's absolute rounding, as it does with any exp.
  constexpr double kEll = 0.25;
  const Matern nu05(1.0, kEll, 0.5), nu15(1.0, kEll, 1.5),
      nu25(1.0, kEll, 2.5);
  const Exponential ex(1.0, kEll);
  const SquaredExponential sq(1.0, kEll);
  const auto expl_of = [](double x) {
    return std::exp(static_cast<long double>(x));
  };
  Rng rng(71);
  double worst_exp = 0.0, worst_product = 0.0;
  for (int t = 0; t < 200000; ++t) {
    const double r =
        kEll * (t % 2 == 0 ? rng.uniform(0.0, 745.0) : rng.uniform(0.0, 5.0));
    const double s = r / kEll;  // Matérn's s = r/θ2
    const long double e = expl_of(-s);
    // The squared exponential's exponent −r²/(2ℓ²) is −s at ℓ·√(2s).
    const double r_sq = kEll * std::sqrt(2.0 * s);
    worst_exp = std::max(
        {worst_exp, ulp_error(nu05(r), e), ulp_error(ex(r), expl_of(-r / kEll)),
         ulp_error(sq(r_sq), expl_of(-r_sq * r_sq / (2.0 * kEll * kEll)))});
    if (s > 708.0) continue;  // e^-s is subnormal
    const double p15 = 1.0 + s, p25 = 1.0 + s + s * s / 3.0;
    worst_product = std::max({worst_product, ulp_error(nu15(r), p15 * e),
                              ulp_error(nu25(r), p25 * e)});
  }
  EXPECT_LE(worst_exp, 1.0);
  EXPECT_LE(worst_product, 2.0);
}

TEST(Generator, ClosedFormsAreExactAtZeroAndZeroPastUnderflow) {
  // e^x is exactly 1 at x = 0 and exactly 0 once x < ln(2^-1075)
  // ≈ -745.1332 (kernels.hpp), at any magnitude of the argument.
  const double theta1 = 1.7, ell = 0.3;
  const Matern nu05(theta1, ell, 0.5), nu15(theta1, ell, 1.5),
      nu25(theta1, ell, 2.5);
  const Exponential ex(theta1, ell);
  const SquaredExponential sq(theta1, ell);
  const std::vector<const CovarianceKernel*> closed = {&nu05, &nu15, &nu25,
                                                      &ex, &sq};
  for (const CovarianceKernel* k : closed) EXPECT_EQ((*k)(0.0), theta1);
  for (const double s : {745.1333, 745.14, 746.0, 800.0, 1e4, 1e6, 1e100}) {
    const double r = s * ell;
    EXPECT_EQ(nu05(r), 0.0) << s;
    EXPECT_EQ(nu15(r), 0.0) << s;
    EXPECT_EQ(nu25(r), 0.0) << s;
    EXPECT_EQ(ex(r), 0.0) << s;
    EXPECT_EQ(sq(std::sqrt(2.0 * s) * ell), 0.0) << s;
  }
  // Far enough out the polynomial of ν = 1.5 / 2.5 overflows on its own
  // (s² from ~1.3e154, 1 + s at s = inf); the value must still be 0, in
  // the scalar and in the batch form. With ell = 1, s = r exactly.
  const std::vector<double> far = {1e100, 1e155, 1e300,
                                   std::numeric_limits<double>::max(),
                                   std::numeric_limits<double>::infinity()};
  for (const double nu : {1.5, 2.5}) {
    const Matern m(theta1, 1.0, nu);
    std::vector<double> batch(far.size(), -1.0);
    m.eval(far.data(), batch.data(), static_cast<int>(far.size()));
    for (std::size_t i = 0; i < far.size(); ++i) {
      EXPECT_EQ(m(far[i]), 0.0) << "nu " << nu << " s " << far[i];
      EXPECT_EQ(batch[i], 0.0) << "nu " << nu << " s " << far[i];
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    double out = 0.0;
    m.eval(&nan, &out, 1);
    EXPECT_TRUE(std::isnan(m(nan))) << nu;
    EXPECT_TRUE(std::isnan(out)) << nu;
  }
  // Just above the cutoff e^x is the smallest subnormal, not 0.
  EXPECT_GT(Exponential(1.0, 1.0)(745.13), 0.0);
}

TEST(Generator, St3dExpTileBitsArePinned) {
  // FNV-1a over the bits of one generated st-3D-exp tile (N = 2048, the
  // first sub-diagonal tile at b = 128). The generator's arithmetic is
  // plain IEEE without contraction, so the release (native ISA) and the
  // portable (SSE2) builds must both reproduce this value.
  const auto prob = make_problem(ProblemKind::kSt3DExp, 2048);
  const auto tile = prob.block(128, 0, 128, 128);
  std::uint64_t h = 1469598103934665603ULL;
  for (int j = 0; j < 128; ++j)
    for (int i = 0; i < 128; ++i) {
      h ^= std::bit_cast<std::uint64_t>(tile(i, j));
      h *= 1099511628211ULL;
    }
  EXPECT_EQ(h, 0x51b98bf40d78c630ULL) << std::hex << h;
}
