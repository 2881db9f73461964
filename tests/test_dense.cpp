// Unit tests for ptlr::dense — the BLAS/LAPACK substrate.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "common/flops.hpp"
#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "dense/unblocked.hpp"
#include "dense/util.hpp"
#include "runtime/executor.hpp"
#include "runtime/taskgraph.hpp"
#include "support/reference_lapack.hpp"

using namespace ptlr::dense;
using ptlr::testing::jacobi_svd;
using ptlr::testing::ormqr;
using ptlr::testing::singular_values;
using ptlr::testing::Svd;
using ptlr::Rng;

namespace {

// Naive triple-loop reference GEMM for validation.
Matrix ref_gemm(Trans ta, Trans tb, double alpha, const Matrix& a,
                const Matrix& b, double beta, const Matrix& c) {
  Matrix out = c;
  const int m = c.rows(), n = c.cols();
  const int k = ta == Trans::N ? a.cols() : a.rows();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = ta == Trans::N ? a(i, p) : a(p, i);
        const double bv = tb == Trans::N ? b(p, j) : b(j, p);
        s += av * bv;
      }
      out(i, j) = alpha * s + beta * c(i, j);
    }
  return out;
}

}  // namespace

namespace {

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

bool same_bits(ConstMatrixView x, ConstMatrixView y) {
  for (int j = 0; j < x.cols(); ++j)
    for (int i = 0; i < x.rows(); ++i)
      if (!same_bits(x(i, j), y(i, j))) return false;
  return true;
}

// View-based reference GEMM (handles ld > rows sub-views).
void ref_gemm_view(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                   ConstMatrixView b, double beta, ConstMatrixView c0,
                   MatrixView out) {
  const int m = out.rows(), n = out.cols();
  const int k = ta == Trans::N ? a.cols() : a.rows();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = ta == Trans::N ? a(i, p) : a(p, i);
        const double bv = tb == Trans::N ? b(p, j) : b(j, p);
        s += av * bv;
      }
      out(i, j) = alpha * s + beta * c0(i, j);
    }
}

}  // namespace

// ---------------------------------------------------------------- GEMM ----

struct GemmCase {
  Trans ta, tb;
  int m, n, k;
  double alpha, beta;
};

// gtest (and the ctest names gtest_discover_tests derives) prints each
// case through PrintTo; without one a struct prints as its raw bytes,
// uninitialised padding included.
void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << (c.ta == Trans::N ? "N" : "T") << (c.tb == Trans::N ? "N" : "T")
      << " " << c.m << "x" << c.n << "x" << c.k << " alpha=" << c.alpha
      << " beta=" << c.beta;
}

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesReference) {
  const auto p = GetParam();
  Rng rng(17);
  Matrix a(p.ta == Trans::N ? p.m : p.k, p.ta == Trans::N ? p.k : p.m);
  Matrix b(p.tb == Trans::N ? p.k : p.n, p.tb == Trans::N ? p.n : p.k);
  Matrix c(p.m, p.n);
  fill_uniform(a.view(), rng);
  fill_uniform(b.view(), rng);
  fill_uniform(c.view(), rng);
  const Matrix want = ref_gemm(p.ta, p.tb, p.alpha, a, b, p.beta, c);
  gemm(p.ta, p.tb, p.alpha, a.view(), b.view(), p.beta, c.view());
  EXPECT_LT(frob_diff(c.view(), want.view()), 1e-12 * (1 + frob_norm(want.view())));
}

INSTANTIATE_TEST_SUITE_P(
    AllTransCombos, GemmTest,
    ::testing::Values(
        GemmCase{Trans::N, Trans::N, 13, 7, 9, 1.0, 0.0},
        GemmCase{Trans::N, Trans::T, 13, 7, 9, -1.0, 1.0},
        GemmCase{Trans::T, Trans::N, 13, 7, 9, 2.0, 0.5},
        GemmCase{Trans::T, Trans::T, 13, 7, 9, 1.0, 1.0},
        GemmCase{Trans::N, Trans::N, 1, 1, 1, 1.0, 0.0},
        GemmCase{Trans::N, Trans::T, 32, 32, 32, 1.0, -1.0},
        GemmCase{Trans::T, Trans::N, 5, 40, 3, 0.5, 2.0},
        GemmCase{Trans::N, Trans::N, 40, 2, 17, 1.0, 0.0}));

TEST(Gemm, ZeroAlphaOnlyScalesC) {
  Rng rng(3);
  Matrix a(4, 4), b(4, 4), c(4, 4);
  fill_uniform(a.view(), rng);
  fill_uniform(b.view(), rng);
  fill_uniform(c.view(), rng);
  Matrix want = c;
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i) want(i, j) *= 3.0;
  gemm(Trans::N, Trans::N, 0.0, a.view(), b.view(), 3.0, c.view());
  EXPECT_LT(frob_diff(c.view(), want.view()), 1e-14);
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix a(4, 5), b(6, 3), c(4, 3);
  EXPECT_THROW(gemm(Trans::N, Trans::N, 1.0, a.view(), b.view(), 0.0, c.view()),
               ptlr::Error);
}

TEST(Gemm, ChargesModelFlops) {
  ptlr::flops::Counter::reset();
  Matrix a(10, 20), b(20, 30), c(10, 30);
  gemm(Trans::N, Trans::N, 1.0, a.view(), b.view(), 0.0, c.view());
  EXPECT_DOUBLE_EQ(ptlr::flops::Counter::total(), 2.0 * 10 * 30 * 20);
}

#ifdef __linux__
// Each thread's first blocked GEMM allocates its pack buffers, 4.7 MB
// sized for the largest cache block. Only the pages a product actually
// packs may become resident: a 128×128 GEMM packs about 0.25 MB, so a
// fresh thread must grow the resident set by well under the full buffers.
TEST(Gemm, FreshThreadMakesOnlyPackedPagesResident) {
  auto resident_bytes = [] {
    std::ifstream statm("/proc/self/statm");
    long long pages = 0, resident = 0;
    statm >> pages >> resident;
    return resident * sysconf(_SC_PAGESIZE);
  };
  const int n = 128;
  Rng rng(47);
  Matrix a(n, n), b(n, n), c(n, n);
  fill_uniform(a.view(), rng);
  fill_uniform(b.view(), rng);
  long long growth = -1;
  std::thread([&] {
    const long long before = resident_bytes();
    gemm(Trans::N, Trans::N, 1.0, a.view(), b.view(), 0.0, c.view());
    growth = resident_bytes() - before;
  }).join();
  ASSERT_GE(growth, 0);
  EXPECT_LT(growth, 3LL << 20) << "resident set grew by " << growth
                               << " bytes";
}
#endif

// Exhaustive oracle for gemm: every Trans combination at sizes straddling
// the MR/NR/MC/KC blocking edges (plus odd/prime shapes), alpha/beta corner
// values, and a componentwise error bound scaled by the accumulation depth
// k. gemm runs the blocked engine from a volume of 32^3 up, so the
// microtile-edge shapes come twice: with a short k they run the unblocked
// loops, and with a k that lifts them over the cutoff (crossing kKC = 256
// where it can) they end in partial microtiles of both footprints, 8 x 6
// and 16 x 8.
TEST(GemmOracle, BlockedMatchesNaiveAcrossBlockingEdges) {
  const int cases[][3] = {
      // Below the cutoff: the unblocked loops.
      {1, 1, 1},     {8, 6, 4},     {9, 7, 5},      {7, 5, 3},
      {16, 12, 8},   {17, 13, 9},   {15, 7, 3},     {16, 8, 4},
      {17, 9, 5},    {33, 17, 9},   {48, 24, 16},   {257, 7, 9},
      {7, 259, 9},
      // The same microtile edges above it, then cache-block edges around
      // kMC = 256 / kKC = 256, primes, and degenerate slivers.
      {8, 6, 700},   {9, 7, 530},   {7, 5, 940},    {16, 12, 171},
      {17, 13, 149}, {15, 7, 320},  {16, 8, 260},   {17, 9, 215},
      {33, 17, 59},  {48, 24, 29},  {53, 29, 24},   {257, 7, 19},
      {7, 259, 19},  {63, 47, 31},  {64, 48, 32},   {65, 49, 33},
      {97, 101, 103}, {129, 6, 129}, {13, 11, 257}, {255, 255, 31},
      {256, 12, 256}, {33, 65, 130}, {1, 259, 257},
  };
  const double alphas[] = {0.0, 1.0, -1.0, 0.5};
  const double betas[] = {0.0, 1.0, -1.0, 0.5};
  Rng rng(97);
  int combo = 0;
  for (const auto& sz : cases) {
    const int m = sz[0], n = sz[1], k = sz[2];
    for (const Trans ta : {Trans::N, Trans::T}) {
      for (const Trans tb : {Trans::N, Trans::T}) {
        // Rotate through the alpha/beta corners so every pair appears
        // across the sweep without a full 16x blow-up per size.
        const double alpha = alphas[combo % 4];
        const double beta = betas[(combo / 4) % 4];
        ++combo;
        Matrix a(ta == Trans::N ? m : k, ta == Trans::N ? k : m);
        Matrix b(tb == Trans::N ? k : n, tb == Trans::N ? n : k);
        Matrix c(m, n), want(m, n);
        fill_uniform(a.view(), rng);
        fill_uniform(b.view(), rng);
        fill_uniform(c.view(), rng);
        ref_gemm_view(ta, tb, alpha, a.view(), b.view(), beta, c.view(),
                      want.view());
        gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view());
        // Componentwise: |err| <= O(k) * eps with |a|,|b| <= 1 entries.
        const double tol = 40.0 * (k + 4) * 2.2e-16 *
                               (std::abs(alpha) + 1e-30) +
                           4.0 * 2.2e-16 * std::abs(beta);
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < m; ++i)
            ASSERT_NEAR(c(i, j), want(i, j), tol)
                << "m=" << m << " n=" << n << " k=" << k
                << " ta=" << (ta == Trans::N ? "N" : "T")
                << " tb=" << (tb == Trans::N ? "N" : "T")
                << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

// Sub-views with ld > rows must pack and write back correctly (67 x 51 x 70
// is above the cutoff, so this is the blocked engine).
TEST(GemmOracle, BlockedHandlesPaddedLeadingDimensions) {
  Rng rng(101);
  const int m = 67, n = 51, k = 70;
  Matrix pa(m + 9, k + 3), pb(n + 5, k + 7), pc(m + 11, n + 2);
  fill_uniform(pa.view(), rng);
  fill_uniform(pb.view(), rng);
  fill_uniform(pc.view(), rng);
  auto a = pa.block(4, 2, m, k);    // ld = m + 9
  auto b = pb.block(3, 5, n, k);    // op(B) = B^T, ld = n + 5
  auto c = pc.block(7, 1, m, n);    // ld = m + 11
  Matrix want(m, n);
  ref_gemm_view(Trans::N, Trans::T, -0.5, a, b, 1.0, c, want.view());
  gemm(Trans::N, Trans::T, -0.5, a, b, 1.0, c);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) ASSERT_NEAR(c(i, j), want(i, j), 1e-12);
  // Padding rows/cols of the parents must be untouched outside the view;
  // spot-check the first parent column below the view.
  EXPECT_EQ(pc(7 + m, 1), pc(7 + m, 1));  // no ASan/UBSan trip is the test
}

// ----------------------------------------------- BLAS NaN/Inf semantics ----

// Reference BLAS computes 0 * NaN = NaN; the seed's `if (w == 0) continue`
// shortcuts silently swallowed non-finite operands. Both implementations
// must propagate them: each test runs one shape below the blocking cutoff
// (the unblocked loops) and one above it (the blocked engine, or the
// recursive TRSM).
TEST(NanPropagation, GemmPropagatesNanThroughZeroWeight) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [m, n, k] : {std::array{5, 3, 2}, std::array{40, 40, 40}}) {
    Matrix a(m, k), b(k, n), c(m, n);
    a.fill(1.0);
    a(2, 0) = nan;
    b.fill(0.0);     // B == 0, so every weight alpha*b is zero
    c.fill(7.0);
    gemm(Trans::N, Trans::N, 1.0, a.view(), b.view(), 1.0, c.view());
    for (int j = 0; j < n; ++j)
      EXPECT_TRUE(std::isnan(c(2, j))) << "m=" << m << " did not propagate";
    // Rows without NaN stay finite (0 contribution added).
    EXPECT_DOUBLE_EQ(c(0, 0), 7.0) << "m=" << m;
  }
}

TEST(NanPropagation, GemmInfTimesZeroIsNan) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [m, n, k] : {std::array{4, 2, 1}, std::array{40, 40, 40}}) {
    Matrix a(m, k), b(n, k), c(m, n);  // op(B) = B^T is k x n
    a.fill(inf);
    b.fill(0.0);
    c.fill(0.0);
    gemm(Trans::N, Trans::T, 1.0, a.view(), b.view(), 0.0, c.view());
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) EXPECT_TRUE(std::isnan(c(i, j))) << "m=" << m;
  }
}

TEST(NanPropagation, SyrkPropagatesNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // n = 70 > kOuterNB and 70^2 * 8 > 32^3: the blocked engine.
  for (const auto& [n, k] : {std::array{6, 2}, std::array{70, 8}}) {
    Matrix a(n, k), c(n, n);
    a.fill(0.0);          // row j weights are all zero
    a(4, 0) = nan;        // NaN in another row of the same column
    c.fill(1.0);
    syrk(Uplo::Lower, Trans::N, 1.0, a.view(), 1.0, c.view());
    // c(4, j) for j <= 4 accumulates a(4,p)*a(j,p) = NaN * 0 = NaN.
    for (int j = 0; j <= 4; ++j) EXPECT_TRUE(std::isnan(c(4, j))) << "n=" << n;
  }
}

TEST(NanPropagation, TrsmPropagatesNanThroughZeroOffdiagonal) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // na = 70 > kOuterNB: the recursive solve.
  for (const auto& [m, na] : {std::array{3, 2}, std::array{40, 70}}) {
    const Matrix a = identity(na);  // a(1, 0) = 0 multiplies the NaN column
    Matrix b(m, na);
    b.fill(1.0);
    for (int i = 0; i < m; ++i) b(i, 0) = nan;
    // X * A^T = B forward-substitutes X(:,1) -= X(:,0) * a(1,0) = NaN * 0.
    trsm(Side::Right, Uplo::Lower, Trans::T, Diag::NonUnit, 1.0, a.view(),
         b.view());
    for (int i = 0; i < m; ++i) EXPECT_TRUE(std::isnan(b(i, 1))) << "na=" << na;
  }
}

// ------------------------------------- blocked-vs-reference equivalence ----

namespace {

// C = beta * C on the lower triangle, then the reference SYRK update.
void ref_syrk(double alpha, ConstMatrixView a, double beta, MatrixView c) {
  for (int j = 0; j < c.cols(); ++j)
    for (int i = j; i < c.rows(); ++i) c(i, j) *= beta;
  syrk_unblocked(alpha, a, c);
}

}  // namespace

TEST(BlockedPath, SyrkMatchesUnblocked) {
  Rng rng(61);
  // n = 150 runs the blocked engine, n = 64 (= kOuterNB) the unblocked
  // loops whatever k is.
  for (const int n : {150, 64}) {
    const int k = 131;
    Matrix a(n, k);
    fill_uniform(a.view(), rng);
    Matrix c(n, n), cu(n, n);
    fill_uniform(c.view(), rng);
    cu = c;
    syrk(Uplo::Lower, Trans::N, -1.0, a.view(), 0.5, c.view());
    ref_syrk(-1.0, a.view(), 0.5, cu.view());
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        ASSERT_NEAR(c(i, j), cu(i, j), 1e-11) << "n=" << n;
  }
}

TEST(BlockedPath, TrsmMatchesUnblockedAllVariants) {
  Rng rng(62);
  const struct {
    Side side;
    Trans ta;
  } variants[] = {{Side::Left, Trans::N},
                  {Side::Left, Trans::T},
                  {Side::Right, Trans::T}};
  // 137 x 75 recurses for every variant; 64 x 64 is one unblocked leaf.
  for (const auto& [m, n] : {std::array{137, 75}, std::array{64, 64}}) {
    for (const auto& v : variants) {
      const int na = v.side == Side::Left ? m : n;
      Matrix a(na, na);
      fill_uniform(a.view(), rng, 0.01, 0.5);
      for (int j = 0; j < na; ++j) a(j, j) = 2.0 + j * 0.01;
      Matrix b(m, n), bu(m, n);
      fill_uniform(b.view(), rng);
      bu = b;
      trsm(v.side, Uplo::Lower, v.ta, Diag::NonUnit, 1.5, a.view(), b.view());
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i) bu(i, j) *= 1.5;
      trsm_unblocked(v.side, v.ta, a.view(), bu.view());
      const double scale = frob_norm(bu.view());
      EXPECT_LT(frob_diff(b.view(), bu.view()), 1e-10 * (1.0 + scale))
          << "m=" << m << " n=" << n;
    }
  }
}

// The Left/Lower/N leaf solves four right-hand sides per pass and the
// leftover ones alone; either way each column must come out bit for bit as
// the solve of that column alone. m covers every vector-tail length at
// kVecLen = 4 or 8 plus the 64-row leaf and a 128-row one; n covers one and
// two passes with every leftover count, and (4)-TRSM's 56 columns.
TEST(BlockedPath, TrsmLeafColumnsMatchOneColumnSolvesBitwise) {
  Rng rng(66);
  std::vector<int> rows;
  for (int m = 1; m <= 65; ++m) rows.push_back(m);
  rows.push_back(128);
  for (const int m : rows) {
    Matrix l(m, m);
    fill_uniform(l.view(), rng, -0.5, 0.5);
    for (int j = 0; j < m; ++j) l(j, j) = 2.0 + 0.01 * j;
    for (const int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 56}) {
      // B and its copy sit in taller matrices, so ld != m.
      Matrix b(m + 3, n);
      fill_uniform(b.view(), rng);
      Matrix one = b;
      trsm_unblocked(Side::Left, Trans::N, l.view(),
                     b.view().block(0, 0, m, n));
      for (int j = 0; j < n; ++j)
        trsm_unblocked(Side::Left, Trans::N, l.view(),
                       one.view().block(0, j, m, 1));
      ASSERT_TRUE(same_bits(b.view(), one.view())) << "m=" << m << " n=" << n;
    }
  }
}

// Nested child chunks move a row of C (or of a TRSM's X) between an
// interior microtile or strip and an edge one, so factors stay bitwise
// identical across thread counts only if both compute a row alike. A row
// duplicated into the last, partial microtile / strip must come out bit
// for bit equal to its original. m = 53, n = 29 leave partial edges for
// kMR = 8 or 16 and kNR = 6, 8 or 12; m = 69 is two 32-row TRSM strips
// plus 5 rows. Every shape but the na = 40 TRSM is above the blocking
// cutoff.
TEST(BlockedPath, DuplicatedRowsStayBitwiseEqualAcrossEdges) {
  Rng rng(65);
  const int m = 53, n = 29, k = 37;
  for (const Trans ta : {Trans::N, Trans::T}) {
    for (const Trans tb : {Trans::N, Trans::T}) {
      Matrix a(ta == Trans::N ? m : k, ta == Trans::N ? k : m);
      Matrix b(tb == Trans::N ? k : n, tb == Trans::N ? n : k);
      Matrix c(m, n);
      fill_uniform(a.view(), rng);
      fill_uniform(b.view(), rng);
      fill_uniform(c.view(), rng);
      for (int p = 0; p < k; ++p) {
        if (ta == Trans::N) {
          a(52, p) = a(2, p);
        } else {
          a(p, 52) = a(p, 2);
        }
      }
      for (int j = 0; j < n; ++j) c(52, j) = c(2, j);
      gemm(ta, tb, -0.75, a.view(), b.view(), 0.5, c.view());
      for (int j = 0; j < n; ++j)
        ASSERT_TRUE(same_bits(c(2, j), c(52, j)))
            << "gemm ta=" << (ta == Trans::N ? "N" : "T")
            << " tb=" << (tb == Trans::N ? "N" : "T") << " col " << j;
    }
  }

  // SYRK-lower at n = 69 (> kOuterNB): rows 2 and 68 both own columns
  // 0..2; row 2's microtile straddles the diagonal (masked scratch tile),
  // row 68's is a partial edge tile below it.
  {
    const int ns = 69;
    Matrix a(ns, k);
    Matrix c(ns, ns);
    fill_uniform(a.view(), rng);
    fill_uniform(c.view(), rng);
    for (int p = 0; p < k; ++p) a(68, p) = a(2, p);
    for (int j = 0; j <= 2; ++j) c(68, j) = c(2, j);
    syrk(Uplo::Lower, Trans::N, -1.0, a.view(), 1.0, c.view());
    for (int j = 0; j <= 2; ++j)
      ASSERT_TRUE(same_bits(c(2, j), c(68, j))) << "syrk col " << j;
  }

  // Right/Lower/T TRSM: row 3 sits in the first 32-row strip, row 68 in
  // the axpy-form leftover. na = 40 is one leaf; na = 150 recurses, with
  // GEMM folds whose microtile edges also separate the two rows.
  const int mt = 69;
  for (const int na : {40, 150}) {
    Matrix l(na, na);
    fill_uniform(l.view(), rng, -0.5, 0.5);
    for (int j = 0; j < na; ++j) l(j, j) = 2.0 + 0.01 * j;
    Matrix x(mt, na);
    fill_uniform(x.view(), rng);
    for (int j = 0; j < na; ++j) x(68, j) = x(3, j);
    trsm(Side::Right, Uplo::Lower, Trans::T, Diag::NonUnit, 1.5, l.view(),
         x.view());
    for (int j = 0; j < na; ++j)
      ASSERT_TRUE(same_bits(x(3, j), x(68, j)))
          << "trsm na=" << na << " col " << j;
  }
}

TEST(BlockedPath, PotrfMatchesUnblocked) {
  Rng rng(63);
  // n = 200 recurses onto TRSM/SYRK; n = 64 (= kOuterNB) is one potf2.
  for (const int n : {200, 64}) {
    Matrix a = random_spd(n, rng);
    Matrix lb = a, lu = a;
    potrf(Uplo::Lower, lb.view());
    potf2(lu.view());
    EXPECT_LT(frob_diff(lb.view(), lu.view()),
              1e-11 * (1.0 + frob_norm(lu.view())))
        << "n=" << n;
  }
}

TEST(BlockedPath, ChargesModelFlopsExactlyOnce) {
  const int n = 160, k = 96;
  Rng rng(64);
  Matrix a(n, k), c(n, n);
  fill_uniform(a.view(), rng);
  ptlr::flops::Counter::reset();
  syrk(Uplo::Lower, Trans::N, 1.0, a.view(), 0.0, c.view());
  EXPECT_DOUBLE_EQ(ptlr::flops::Counter::total(),
                   static_cast<double>(n) * n * k);
  Matrix t(n, n);
  fill_uniform(t.view(), rng, 0.1, 1.0);
  for (int j = 0; j < n; ++j) t(j, j) = 3.0;
  Matrix b(n, 80);
  fill_uniform(b.view(), rng);
  ptlr::flops::Counter::reset();
  trsm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 1.0, t.view(),
       b.view());
  EXPECT_DOUBLE_EQ(ptlr::flops::Counter::total(),
                   static_cast<double>(n) * n * 80);
  Matrix spd = random_spd(n, rng);
  ptlr::flops::Counter::reset();
  potrf(Uplo::Lower, spd.view());
  // The recursion subtracts then re-adds the TRSM/SYRK models through the
  // accumulating counter, so cancellation is exact only up to rounding.
  EXPECT_NEAR(ptlr::flops::Counter::total(),
              static_cast<double>(n) * n * n / 3.0, 1.0);
}

// ------------------------------------------------------ the size rule ----

// The problem size is the only selector (blas.cpp's blocked_l3,
// gemm_kernel.cpp's worth_blocking): below a cutoff a public entry must
// compute its unblocked reference bit for bit, above it the blocked engine
// must agree with the reference within rounding, and inside a ws task the
// child chunking from 2 * kNestedMinChunk rows up must reproduce the serial
// bits. The cutoffs are a volume of 32^3, kOuterNB = 64 and
// kNestedMinChunk = 64 (gemm_kernel.hpp).
namespace {

struct EntryRun {
  Matrix out;
  double flops;
  long long spawned;
};

// `entry` applied to a copy of `in`, serially or inside one task of a
// two-worker ws run, where the level-3 entries may spawn child tasks.
EntryRun run_entry(const Matrix& in,
                   const std::function<void(MatrixView)>& entry, bool nested) {
  EntryRun r{in, 0.0, 0};
  ptlr::flops::Counter::reset();
  if (nested) {
    ptlr::rt::TaskGraph g;
    ptlr::rt::TaskInfo t;
    t.name = "entry";
    t.fn = [&] { entry(r.out.view()); };
    g.add_task(std::move(t), {}, {{ptlr::rt::make_key(0, 0, 0)}});
    r.spawned = ptlr::rt::execute(g, 2).sched.nested_spawned;
  } else {
    entry(r.out.view());
  }
  r.flops = ptlr::flops::Counter::total();
  return r;
}

// One shape of one entry: the serial result against the reference
// (bitwise when `unblocked`), the Table I model charged exactly once, and
// the nested run bitwise equal to the serial one, spawning children
// exactly when `chunked`.
void check_entry(const std::string& what, const Matrix& in,
                 const std::function<void(MatrixView)>& entry,
                 const std::function<void(MatrixView)>& reference,
                 double model, bool unblocked, bool chunked) {
  SCOPED_TRACE(what);
  const EntryRun serial = run_entry(in, entry, false);
  Matrix want = in;
  reference(want.view());
  if (unblocked) {
    EXPECT_TRUE(same_bits(serial.out.view(), want.view()));
  } else {
    EXPECT_LT(frob_diff(serial.out.view(), want.view()),
              1e-12 * (1.0 + frob_norm(want.view())));
  }
  // The int64 counter truncates potrf's n^3 / 3 once.
  EXPECT_EQ(serial.flops, std::floor(model));
  const EntryRun nested = run_entry(in, entry, true);
  EXPECT_TRUE(same_bits(nested.out.view(), serial.out.view()));
  EXPECT_EQ(nested.spawned > 0, chunked);
  EXPECT_EQ(nested.flops, std::floor(model));
}

std::string shape_name(const char* entry, int m, int n, int k) {
  return std::string(entry) + " " + std::to_string(m) + "x" +
         std::to_string(n) + "x" + std::to_string(k);
}

}  // namespace

TEST(SizeRule, GemmMatchesReferenceOnEachSideOfTheCutoffs) {
  struct Shape {
    int m, n, k;
    bool unblocked, chunked;
  };
  const Shape shapes[] = {
      {32, 32, 31, true, false},    // volume below 32^3
      {32, 32, 32, false, false},   // volume 32^3
      {127, 64, 64, false, false},  // m < 2 * kNestedMinChunk
      {128, 64, 64, false, true},
      {129, 64, 64, false, true},
  };
  Rng rng(66);
  for (const Shape& s : shapes) {
    for (const Trans ta : {Trans::N, Trans::T}) {
      for (const Trans tb : {Trans::N, Trans::T}) {
        Matrix a(ta == Trans::N ? s.m : s.k, ta == Trans::N ? s.k : s.m);
        Matrix b(tb == Trans::N ? s.k : s.n, tb == Trans::N ? s.n : s.k);
        Matrix c(s.m, s.n);
        fill_uniform(a.view(), rng);
        fill_uniform(b.view(), rng);
        fill_uniform(c.view(), rng);
        const char* name = ta == Trans::N
                               ? (tb == Trans::N ? "gemm NN" : "gemm NT")
                               : (tb == Trans::N ? "gemm TN" : "gemm TT");
        check_entry(
            shape_name(name, s.m, s.n, s.k), c,
            [&](MatrixView x) {
              gemm(ta, tb, -0.75, a.view(), b.view(), 1.0, x);
            },
            [&](MatrixView x) {
              gemm_unblocked(ta, tb, -0.75, a.view(), b.view(), x);
            },
            ptlr::flops::gemm(s.m, s.n, s.k), s.unblocked, s.chunked);
      }
    }
  }
}

TEST(SizeRule, SyrkMatchesReferenceOnEachSideOfTheCutoffs) {
  struct Shape {
    int n, k;
    bool unblocked, chunked;
  };
  const Shape shapes[] = {
      {64, 64, true, false},    // n = kOuterNB, volume 64^3
      {65, 7, true, false},     // volume below 32^3
      {65, 8, false, false},    // 65^2 * 8 > 32^3
      {127, 64, false, false},  // n < 2 * kNestedMinChunk
      {128, 64, false, true},
      {129, 64, false, true},
  };
  Rng rng(67);
  for (const Shape& s : shapes) {
    Matrix a(s.n, s.k), c(s.n, s.n);
    fill_uniform(a.view(), rng);
    fill_uniform(c.view(), rng);
    check_entry(
        shape_name("syrk", s.n, s.n, s.k), c,
        [&](MatrixView x) {
          syrk(Uplo::Lower, Trans::N, -1.0, a.view(), 1.0, x);
        },
        [&](MatrixView x) { syrk_unblocked(-1.0, a.view(), x); },
        ptlr::flops::syrk(s.n, s.k), s.unblocked, s.chunked);
  }
}

TEST(SizeRule, TrsmMatchesReferenceOnEachSideOfTheCutoffs) {
  struct Shape {
    int na, nrhs;
    bool unblocked, chunked;
  };
  const Shape shapes[] = {
      {64, 64, true, false},    // na = kOuterNB
      {65, 7, true, false},     // volume below 32^3
      {65, 8, false, false},    // 65^2 * 8 > 32^3
      {65, 127, false, false},  // nrhs < 2 * kNestedMinChunk
      {65, 128, false, true},
      {129, 129, false, true},
  };
  const struct {
    const char* name;
    Side side;
    Trans ta;
  } variants[] = {{"trsm Left/Lower/N", Side::Left, Trans::N},
                  {"trsm Left/Lower/T", Side::Left, Trans::T},
                  {"trsm Right/Lower/T", Side::Right, Trans::T}};
  Rng rng(68);
  for (const Shape& s : shapes) {
    for (const auto& v : variants) {
      // Diagonally dominant, so the solve is well conditioned.
      Matrix l(s.na, s.na);
      fill_uniform(l.view(), rng, -0.5, 0.5);
      for (int j = 0; j < s.na; ++j) l(j, j) = s.na;
      const int m = v.side == Side::Left ? s.na : s.nrhs;
      const int n = v.side == Side::Left ? s.nrhs : s.na;
      Matrix b(m, n);
      fill_uniform(b.view(), rng);
      check_entry(
          shape_name(v.name, m, n, s.na), b,
          [&](MatrixView x) {
            trsm(v.side, Uplo::Lower, v.ta, Diag::NonUnit, 1.0, l.view(), x);
          },
          [&](MatrixView x) { trsm_unblocked(v.side, v.ta, l.view(), x); },
          ptlr::flops::trsm(s.na, s.nrhs), s.unblocked, s.chunked);
    }
  }
}

TEST(SizeRule, PotrfMatchesReferenceOnEachSideOfTheCutoffs) {
  struct Shape {
    int n;
    bool unblocked, chunked;
  };
  // n = 255 and 257 split into a 127 / 128-column panel TRSM and a 128 /
  // 129-row downdate SYRK: the first recursion level spawns children.
  const Shape shapes[] = {
      {64, true, false}, {65, false, false}, {255, false, true},
      {257, false, true}};
  Rng rng(69);
  for (const Shape& s : shapes) {
    const Matrix a = random_spd(s.n, rng);
    check_entry(
        shape_name("potrf", s.n, s.n, s.n), a,
        [](MatrixView x) { potrf(Uplo::Lower, x); },
        [](MatrixView x) { potf2(x); }, ptlr::flops::potrf(s.n), s.unblocked,
        s.chunked);
  }
}

// The BLAS signatures admit two combinations nothing implements; each
// throws a ptlr::Error that names it instead of computing another variant.
TEST(SizeRule, UnimplementedVariantsThrowNamingThem) {
  Matrix l = identity(4), b(4, 4), c(4, 4);
  const auto message = [](const std::function<void()>& fn) {
    try {
      fn();
    } catch (const ptlr::Error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_NE(message([&] {
              trsm(Side::Right, Uplo::Lower, Trans::N, Diag::NonUnit, 1.0,
                   l.view(), b.view());
            }).find("Right/Lower/N"),
            std::string::npos);
  EXPECT_NE(message([&] {
              trsm_unblocked(Side::Right, Trans::N, l.view(), b.view());
            }).find("Right/Lower/N"),
            std::string::npos);
  EXPECT_NE(message([&] {
              syrk(Uplo::Lower, Trans::T, 1.0, b.view(), 0.0, c.view());
            }).find("Lower/T"),
            std::string::npos);
}

// ---------------------------------------------------------------- SYRK ----

TEST(Syrk, LowerNotransMatchesGemm) {
  Rng rng(5);
  Matrix a(9, 4), c(9, 9), cg(9, 9);
  fill_uniform(a.view(), rng);
  fill_uniform(c.view(), rng);
  symmetrize(Uplo::Lower, c.view());
  cg = c;
  syrk(Uplo::Lower, Trans::N, -1.0, a.view(), 1.0, c.view());
  gemm(Trans::N, Trans::T, -1.0, a.view(), a.view(), 1.0, cg.view());
  for (int j = 0; j < 9; ++j)
    for (int i = j; i < 9; ++i) EXPECT_NEAR(c(i, j), cg(i, j), 1e-13);
}

TEST(Syrk, LeavesOppositeTriangleUntouched) {
  Rng rng(7);
  Matrix a(6, 3), c(6, 6);
  fill_uniform(a.view(), rng);
  c.fill(7.0);
  syrk(Uplo::Lower, Trans::N, 1.0, a.view(), 0.0, c.view());
  for (int j = 1; j < 6; ++j)
    for (int i = 0; i < j; ++i) EXPECT_DOUBLE_EQ(c(i, j), 7.0);
}

// ---------------------------------------------------------------- TRSM ----

struct TrsmCase {
  Side side;
  Trans trans;
};

void PrintTo(const TrsmCase& c, std::ostream* os) {
  *os << (c.side == Side::Left ? "Left" : "Right") << " Lower "
      << (c.trans == Trans::N ? "N" : "T") << " NonUnit";
}

class TrsmTest : public ::testing::TestWithParam<TrsmCase> {};

TEST_P(TrsmTest, SolvesSystem) {
  const auto p = GetParam();
  Rng rng(11);
  const int m = 11, n = 6;
  const int na = p.side == Side::Left ? m : n;
  Matrix a(na, na);
  fill_uniform(a.view(), rng, 0.1, 1.0);
  for (int j = 0; j < na; ++j) a(j, j) = 3.0 + j;
  // Zero the non-referenced triangle so the reference multiply is exact.
  zero_opposite_triangle(Uplo::Lower, a.view());
  Matrix x(m, n);
  fill_uniform(x.view(), rng);
  // Build B = op(A)*X (left) or X*op(A) (right), then solve.
  Matrix bm(m, n);
  if (p.side == Side::Left)
    gemm(p.trans, Trans::N, 1.0, a.view(), x.view(), 0.0, bm.view());
  else
    gemm(Trans::N, p.trans, 1.0, x.view(), a.view(), 0.0, bm.view());
  trsm(p.side, Uplo::Lower, p.trans, Diag::NonUnit, 1.0, a.view(), bm.view());
  EXPECT_LT(frob_diff(bm.view(), x.view()), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, TrsmTest,
                         ::testing::Values(TrsmCase{Side::Left, Trans::N},
                                           TrsmCase{Side::Left, Trans::T},
                                           TrsmCase{Side::Right, Trans::T}));

TEST(Trsm, AppliesAlpha) {
  Matrix a = identity(3);
  Matrix bm(3, 2);
  bm.fill(1.0);
  trsm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 5.0, a.view(),
       bm.view());
  EXPECT_DOUBLE_EQ(bm(2, 1), 5.0);
}

// --------------------------------------------------------------- POTRF ----

TEST(Potrf, FactorizesSpdLower) {
  Rng rng(21);
  for (int n : {1, 2, 17, 64, 130}) {
    Matrix a = random_spd(n, rng);
    Matrix l = a;
    potrf(Uplo::Lower, l.view());
    zero_opposite_triangle(Uplo::Lower, l.view());
    Matrix rec(n, n);
    gemm(Trans::N, Trans::T, 1.0, l.view(), l.view(), 0.0, rec.view());
    EXPECT_LT(frob_diff(rec.view(), a.view()), 1e-10 * frob_norm(a.view()))
        << "n=" << n;
  }
}

TEST(Potrf, ThrowsOnIndefiniteWithPivotIndex) {
  Matrix a = identity(5);
  a(3, 3) = -1.0;
  try {
    potrf(Uplo::Lower, a.view());
    FAIL() << "expected NumericalError";
  } catch (const ptlr::NumericalError& e) {
    EXPECT_EQ(e.info(), 4);  // 1-based index of the failing pivot
  }
}

TEST(Potrf, ReportsGlobalPivotIndexPastFirstBlock) {
  // Indefinite entry beyond the recursion's first diagonal block: the
  // 1-based pivot index must be global, not block-local.
  Matrix a = identity(130);
  a(100, 100) = -1.0;
  try {
    potrf(Uplo::Lower, a.view());
    FAIL() << "expected NumericalError";
  } catch (const ptlr::NumericalError& e) {
    EXPECT_EQ(e.info(), 101);
  }
}

TEST(Potrf, RejectsNonSquare) {
  Matrix a(4, 5);
  EXPECT_THROW(potrf(Uplo::Lower, a.view()), ptlr::Error);
}

// ------------------------------------------------------------------ QR ----

TEST(Qr, ReconstructsTallMatrix) {
  Rng rng(31);
  const int m = 40, n = 12;
  Matrix a(m, n);
  fill_uniform(a.view(), rng);
  Matrix qr = a;
  std::vector<double> tau;
  geqrf(qr.view(), tau);
  // Extract R, then form Q and multiply back.
  Matrix r(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i) r(i, j) = qr(i, j);
  orgqr(qr.view(), tau, n);
  Matrix rec(m, n);
  gemm(Trans::N, Trans::N, 1.0, qr.view(), r.view(), 0.0, rec.view());
  EXPECT_LT(frob_diff(rec.view(), a.view()), 1e-12 * frob_norm(a.view()));
}

TEST(Qr, QHasOrthonormalColumns) {
  Rng rng(32);
  const int m = 33, n = 10;
  Matrix a(m, n);
  fill_uniform(a.view(), rng);
  std::vector<double> tau;
  geqrf(a.view(), tau);
  orgqr(a.view(), tau, n);
  Matrix qtq(n, n);
  gemm(Trans::T, Trans::N, 1.0, a.view(), a.view(), 0.0, qtq.view());
  EXPECT_LT(frob_diff(qtq.view(), identity(n).view()), 1e-12);
}

TEST(Qr, OrmqrAppliesQTranspose) {
  Rng rng(33);
  const int m = 25, n = 8, ncols = 5;
  Matrix a(m, n), c(m, ncols);
  fill_uniform(a.view(), rng);
  fill_uniform(c.view(), rng);
  Matrix qr = a;
  std::vector<double> tau;
  geqrf(qr.view(), tau);
  Matrix q = qr;
  orgqr(q.view(), tau, n);
  // Explicit Q^T * C (leading n rows) vs ormqr.
  Matrix want(n, ncols);
  gemm(Trans::T, Trans::N, 1.0, q.view(), c.view(), 0.0, want.view());
  Matrix got = c;
  ormqr(Trans::T, qr.view(), tau, got.view());
  EXPECT_LT(frob_diff(got.block(0, 0, n, ncols), want.view()), 1e-12);
}

TEST(Qr, Geqp3DetectsExactRank) {
  Rng rng(34);
  const int m = 50, n = 50, r = 7;
  Matrix a = random_lowrank(m, n, r, 1.0, rng);  // flat spectrum, exact rank
  auto piv = geqp3_trunc(a.view(), 1e-10, n);
  EXPECT_EQ(piv.rank, r);
}

TEST(Qr, Geqp3RespectsMaxRank) {
  Rng rng(35);
  Matrix a(30, 30);
  fill_uniform(a.view(), rng);
  auto piv = geqp3_trunc(a.view(), 0.0, 5);
  EXPECT_EQ(piv.rank, 5);
}

TEST(Qr, Geqp3ZeroMatrixHasRankZero) {
  Matrix a(20, 20);
  auto piv = geqp3_trunc(a.view(), 1e-14, 20);
  EXPECT_EQ(piv.rank, 0);
}

namespace {

// Row counts for the QR kernel tests: every reflector-tail length below
// two vectors of eight (1..17 rows) and the vector and tile edges.
std::vector<int> qr_rows() {
  std::vector<int> rows;
  for (int m = 1; m <= 17; ++m) rows.push_back(m);
  for (const int m : {63, 64, 65, 127, 128, 129}) rows.push_back(m);
  return rows;
}

// Column counts: every n mod 4, so the steps apply whole groups of four
// and a last group whose 0–3 missing lanes repeat its last column.
constexpr int kQrCols[] = {1, 2, 3, 4, 5, 6, 7, 8, 13, 30};

// A copy of `a` in a buffer with leading dimension rows + 3 whose padding
// rows hold NaN: a kernel that reads the padding spreads NaN into its
// results, and one that writes it leaves something else there.
class PaddedCopy {
 public:
  explicit PaddedCopy(ConstMatrixView a)
      : rows_(a.rows()),
        cols_(a.cols()),
        store_(static_cast<std::size_t>(ld()) * a.cols(), kPad) {
    copy(a, view());
  }
  MatrixView view() { return {store_.data(), rows_, cols_, ld()}; }
  bool padding_untouched() const {
    for (int j = 0; j < cols_; ++j)
      for (int i = rows_; i < ld(); ++i)
        if (std::bit_cast<std::uint64_t>(
                store_[static_cast<std::size_t>(j) * ld() + i]) !=
            std::bit_cast<std::uint64_t>(kPad))
          return false;
    return true;
  }

 private:
  static constexpr double kPad = std::numeric_limits<double>::quiet_NaN();
  int ld() const { return rows_ + 3; }
  int rows_, cols_;
  std::vector<double> store_;
};

// Long-double Householder QR with geqrf's conventions (v(0) = 1,
// beta = −sign(alpha)·‖(alpha, x)‖, tau = 0 for a zero tail). With
// tol >= 0 it pivots like geqp3_trunc on exact norms: each step takes the
// first column of largest trailing norm and it stops once the trailing
// Frobenius norm is at most tol. `r` holds the factored matrix (R in its
// upper trapezoid), `q` the first `rank` columns of Q.
struct RefQr {
  int m = 0, rank = 0;
  std::vector<long double> r, q;
  long double& rr(int i, int j) {
    return r[static_cast<std::size_t>(j) * m + i];
  }
  long double& qq(int i, int j) {
    return q[static_cast<std::size_t>(j) * m + i];
  }
};

RefQr ref_householder_qr(ConstMatrixView a, double tol = -1.0) {
  const int m = a.rows(), n = a.cols();
  RefQr out;
  out.m = m;
  out.r.resize(static_cast<std::size_t>(m) * n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) out.rr(i, j) = a(i, j);
  const auto norm2 = [&](int j, int i0) {
    long double s = 0.0L;
    for (int i = i0; i < m; ++i) s += out.rr(i, j) * out.rr(i, j);
    return s;
  };
  std::vector<std::vector<long double>> vs;
  std::vector<long double> taus;
  for (int j = 0; j < std::min(m, n); ++j) {
    if (tol >= 0.0) {
      long double tail = 0.0L, best = -1.0L;
      int pmax = j;
      for (int p = j; p < n; ++p) {
        const long double s = norm2(p, j);
        tail += s;
        if (s > best) best = s, pmax = p;
      }
      if (tail <= static_cast<long double>(tol) * tol) break;
      for (int i = 0; i < m; ++i) std::swap(out.rr(i, j), out.rr(i, pmax));
    }
    std::vector<long double> v(static_cast<std::size_t>(m), 0.0L);
    v[static_cast<std::size_t>(j)] = 1.0L;
    const long double alpha = out.rr(j, j), xnorm2 = norm2(j, j + 1);
    long double tau = 0.0L;
    if (xnorm2 != 0.0L) {
      const long double beta =
          -std::copysign(std::sqrt(alpha * alpha + xnorm2), alpha);
      tau = (beta - alpha) / beta;
      for (int i = j + 1; i < m; ++i) {
        v[static_cast<std::size_t>(i)] = out.rr(i, j) / (alpha - beta);
        out.rr(i, j) = 0.0L;
      }
      out.rr(j, j) = beta;
      for (int c = j + 1; c < n; ++c) {
        long double s = 0.0L;
        for (int i = j; i < m; ++i)
          s += v[static_cast<std::size_t>(i)] * out.rr(i, c);
        for (int i = j; i < m; ++i)
          out.rr(i, c) -= tau * s * v[static_cast<std::size_t>(i)];
      }
    }
    vs.push_back(std::move(v));
    taus.push_back(tau);
    out.rank = j + 1;
  }
  // Q = H_0 ⋯ H_{rank−1} applied to the first `rank` columns of I.
  out.q.assign(static_cast<std::size_t>(m) * out.rank, 0.0L);
  for (int j = 0; j < out.rank; ++j) out.qq(j, j) = 1.0L;
  for (int h = out.rank - 1; h >= 0; --h) {
    const auto& v = vs[static_cast<std::size_t>(h)];
    const long double tau = taus[static_cast<std::size_t>(h)];
    for (int c = 0; c < out.rank; ++c) {
      long double s = 0.0L;
      for (int i = h; i < m; ++i)
        s += v[static_cast<std::size_t>(i)] * out.qq(i, c);
      for (int i = h; i < m; ++i)
        out.qq(i, c) -= tau * s * v[static_cast<std::size_t>(i)];
    }
  }
  return out;
}

}  // namespace

// geqrf + orgqr against the long-double reference on every row count and
// every column count mod 4, on NaN-padded views. The leading min(m, n)
// columns have singular values in [0.1, 1], so κ ≤ 10 bounds how far
// rounding moves R and Q (the rest are uniform). Both must lie within
// kBound = 10·κ·max(m, n)·eps of the reference (R scaled by ‖A‖_F), Q must
// be orthonormal and Q·R must reconstruct A within the same bound, and the
// padding must neither leak in nor be written.
TEST(Qr, GeqrfOrgqrMatchLongDoubleReferenceOnPaddedViews) {
  const double eps = std::numeric_limits<double>::epsilon();
  Rng rng(71);
  for (const int m : qr_rows()) {
    for (const int n : kQrCols) {
      const int k = std::min(m, n);
      const double bound = 10.0 * 10.0 * std::max(m, n) * eps;
      Matrix a(m, n);
      copy(random_lowrank(m, k, k, 0.1, rng).view(), a.block(0, 0, m, k));
      fill_uniform(a.block(0, k, m, n - k), rng);
      const double anorm = frob_norm(a.view());
      PaddedCopy w(a.view());
      std::vector<double> tau;
      geqrf(w.view(), tau);
      RefQr ref = ref_householder_qr(a.view());
      Matrix r(k, n);
      long double r_err = 0.0L, q_err = 0.0L;
      for (int j = 0; j < n; ++j)
        for (int i = 0; i <= std::min(j, k - 1); ++i) {
          r(i, j) = w.view()(i, j);
          r_err = std::max(r_err, std::abs(r(i, j) - ref.rr(i, j)));
        }
      orgqr(w.view(), tau, k);
      const ConstMatrixView q = w.view().block(0, 0, m, k);
      for (int j = 0; j < k; ++j)
        for (int i = 0; i < m; ++i)
          q_err = std::max(q_err, std::abs(q(i, j) - ref.qq(i, j)));
      Matrix qtq(k, k), qr(m, n);
      gemm(Trans::T, Trans::N, 1.0, q, q, 0.0, qtq.view());
      gemm(Trans::N, Trans::N, 1.0, q, r.view(), 0.0, qr.view());
      EXPECT_LE(r_err, bound * anorm) << m << "x" << n;
      EXPECT_LE(q_err, bound) << m << "x" << n;
      EXPECT_LE(frob_diff(qtq.view(), identity(k).view()), bound)
          << m << "x" << n;
      EXPECT_LE(frob_diff(qr.view(), a.view()), bound * anorm)
          << m << "x" << n;
      EXPECT_TRUE(w.padding_untouched()) << m << "x" << n;
    }
  }
}

// geqp3_trunc against the pivoted long-double reference on the same
// shapes: a full-rank matrix whose singular values decay geometrically
// from 1 to 1e-12, truncated at tol = 1e-6. The rank must be the
// reference's, the reported tail at most tol, and the trailing block the
// reflectors leave (‖R₂₂‖_F, computed afresh) at most tol·(1 + 1e-6).
TEST(Qr, Geqp3TruncMatchesLongDoubleReferenceRankOnPaddedViews) {
  const double tol = 1e-6;
  Rng rng(72);
  for (const int m : qr_rows()) {
    for (const int n : kQrCols) {
      const int k = std::min(m, n);
      const Matrix a = random_lowrank(m, n, k, 1e-12, rng);
      PaddedCopy w(a.view());
      const PivotedQr piv = geqp3_trunc(w.view(), tol, k);
      const RefQr ref = ref_householder_qr(a.view(), tol);
      EXPECT_EQ(piv.rank, ref.rank) << m << "x" << n;
      EXPECT_LE(piv.tail_frob, tol) << m << "x" << n;
      const ConstMatrixView r22 =
          w.view().block(piv.rank, piv.rank, m - piv.rank, n - piv.rank);
      EXPECT_LE(frob_norm(r22), tol * (1.0 + 1e-6)) << m << "x" << n;
      EXPECT_TRUE(w.padding_untouched()) << m << "x" << n;
    }
  }
}

// A column's bits must not depend on where it sits in the block: in a
// full group of four, in a partial last group whose missing lanes repeat
// its last column, or sharing a pass over v with the next group's dots.
// geqrf of [a₀ | x | x | … | x] keeps the copies of x identical through
// every step, so each row of R must be bitwise constant right of the
// diagonal, at every copy count.
TEST(Qr, GroupedAndLeftoverColumnsGetTheSameBits) {
  Rng rng(73);
  for (const int m : {9, 17, 129}) {
    for (int copies = 1; copies <= 11; ++copies) {
      const int n = copies + 1;
      Matrix a(m, n);
      fill_uniform(a.view(), rng);
      for (int j = 2; j < n; ++j)
        for (int i = 0; i < m; ++i) a(i, j) = a(i, 1);
      std::vector<double> tau;
      geqrf(a.view(), tau);
      for (int i = 0; i < std::min(m, n); ++i)
        for (int j = i + 2; j < n; ++j)
          EXPECT_EQ(std::bit_cast<std::uint64_t>(a(i, j)),
                    std::bit_cast<std::uint64_t>(a(i, i + 1)))
              << "m=" << m << " copies=" << copies << " R(" << i << ","
              << j << ")";
    }
  }
}

// The flops each QR routine charges, pinned: the band tuner's pricing is
// fitted against them. geqrf charges 2n²(m − n/3), orgqr 2mk², and
// geqp3_trunc 4(m − j)(n − j) per step j it takes.
TEST(Qr, ChargesPinnedFlops) {
  Rng rng(74);
  Matrix a(100, 40);
  fill_uniform(a.view(), rng);
  std::vector<double> tau;
  ptlr::flops::Counter::reset_thread_flops();
  geqrf(a.view(), tau);
  EXPECT_DOUBLE_EQ(ptlr::flops::Counter::thread_flops(), 277333.33333333334);
  ptlr::flops::Counter::reset_thread_flops();
  orgqr(a.view(), tau, 40);
  EXPECT_DOUBLE_EQ(ptlr::flops::Counter::thread_flops(), 320000.0);

  Matrix b = random_lowrank(50, 50, 7, 1.0, rng);  // rank 7: seven steps
  ptlr::flops::Counter::reset_thread_flops();
  EXPECT_EQ(geqp3_trunc(b.view(), 1e-10, 50).rank, 7);
  EXPECT_DOUBLE_EQ(ptlr::flops::Counter::thread_flops(), 61964.0);
  Matrix c(128, 128);
  fill_uniform(c.view(), rng);
  ptlr::flops::Counter::reset_thread_flops();
  EXPECT_EQ(geqp3_trunc(c.view(), 0.0, 20).rank, 20);  // stopped by the cap
  EXPECT_DOUBLE_EQ(ptlr::flops::Counter::thread_flops(), 1126040.0);
}

// ----------------------------------------------------------------- SVD ----

TEST(Svd, DiagonalMatrix) {
  Matrix a(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = -2.0;
  a(2, 2) = 1.0;
  a(3, 3) = 0.5;
  auto svd = jacobi_svd(a.view());
  ASSERT_EQ(svd.s.size(), 4u);
  EXPECT_NEAR(svd.s[0], 3.0, 1e-13);
  EXPECT_NEAR(svd.s[1], 2.0, 1e-13);
  EXPECT_NEAR(svd.s[2], 1.0, 1e-13);
  EXPECT_NEAR(svd.s[3], 0.5, 1e-13);
}

namespace {

// ‖A − U_k·(U_kᵀ·A)‖_F: what projecting A onto its k leading left singular
// vectors leaves. Every compression backend truncates this way.
double projection_error(const Matrix& a, const Matrix& u, int k) {
  Matrix r = a;
  if (k > 0) {
    const ConstMatrixView uk = u.block(0, 0, a.rows(), k);
    Matrix c(k, a.cols());
    gemm(Trans::T, Trans::N, 1.0, uk, a.view(), 0.0, c.view());
    gemm(Trans::N, Trans::N, -1.0, uk, c.view(), 1.0, r.view());
  }
  return frob_norm(r.view());
}

// √(Σ_{j≥k} s_j²), the Frobenius norm of the dropped singular values.
double tail_norm(const std::vector<double>& s, int k) {
  double t2 = 0.0;
  for (std::size_t j = static_cast<std::size_t>(k); j < s.size(); ++j)
    t2 += s[j] * s[j];
  return std::sqrt(t2);
}

}  // namespace

TEST(Svd, ReconstructsRandomMatrix) {
  Rng rng(41);
  const int m = 30, n = 13;
  Matrix a(m, n);
  fill_uniform(a.view(), rng);
  auto svd = jacobi_svd(a.view());
  const double bound = 1e-11 * frob_norm(a.view());
  // A = U·(Uᵀ·A), and the rank-k projection drops exactly the tail.
  EXPECT_LT(projection_error(a, svd.u, n), bound);
  for (int k = 0; k < n; ++k)
    EXPECT_NEAR(projection_error(a, svd.u, k), tail_norm(svd.s, k), bound)
        << "k=" << k;
}

TEST(Svd, SingularValuesDescendAndMatchFrobenius) {
  Rng rng(42);
  Matrix a(20, 20);
  fill_uniform(a.view(), rng);
  auto s = singular_values(a.view());
  double sum2 = 0.0;
  for (std::size_t i = 0; i + 1 < s.size(); ++i) EXPECT_GE(s[i], s[i + 1]);
  for (double v : s) sum2 += v * v;
  const double f = frob_norm(a.view());
  EXPECT_NEAR(std::sqrt(sum2), f, 1e-10 * f);
}

TEST(Svd, WideMatrixViaTranspose) {
  Rng rng(43);
  Matrix a(5, 12);
  fill_uniform(a.view(), rng);
  auto s = singular_values(a.view());
  EXPECT_EQ(s.size(), 5u);
  EXPECT_GT(s[0], 0.0);
}

TEST(Svd, RankDeficientTailIsZero) {
  Rng rng(44);
  Matrix a = random_lowrank(25, 25, 4, 1.0, rng);
  auto s = singular_values(a.view());
  for (std::size_t i = 4; i < s.size(); ++i) EXPECT_LT(s[i], 1e-12);
}

// The sweep caches squared column norms and updates them per rotation; an
// update that cancels (the rotation moves nearly all of a column's mass
// into its partner) is recomputed exactly. Three inputs with a known
// spectrum: a dense spectrum down to 1e-14 (~20 sweeps), columns graded
// 1..1e-12, and near-parallel column pairs (columns j and j+n/2 differ by
// σⱼ₊ₙ/₂ ≪ σⱼ), whose first rotations cancel and take the recompute. Each
// must keep the projection A ≈ U·(Uᵀ·A) and every truncation error
// ‖A − U_k·U_kᵀ·A‖_F = √(Σ_{j≥k} s_j²), the orthogonality of U and the
// singular values at the c·n·eps level.
TEST(Svd, CachedNormsStayAccurateOnGradedInput) {
  const double eps = std::numeric_limits<double>::epsilon();
  const int m = 48, n = 40;
  const double bound = 10.0 * n * eps;
  auto orth_error = [](const Matrix& q) {
    const int k = q.cols();
    Matrix g(k, k);
    gemm(Trans::T, Trans::N, 1.0, q.view(), q.view(), 0.0, g.view());
    for (int j = 0; j < k; ++j) g(j, j) -= 1.0;
    return frob_norm(g.view());
  };
  auto random_orthogonal = [](int rows, int cols, Rng& rng) {
    Matrix q(rows, cols);
    std::vector<double> tau;
    fill_gaussian(q.view(), rng);
    geqrf(q.view(), tau);
    orgqr(q.view(), tau, cols);
    return q;
  };
  enum class Mix { kRandom, kNeighbourChain, kParallelPairs };
  struct Case {
    const char* name;
    double smin;  ///< smallest constructed singular value (σ₁ = 1)
    Mix mix;
  };
  const Case cases[] = {
      {"spectrum to 1e-14", 1e-14, Mix::kRandom},
      {"columns graded 1..1e-12", 1e-12, Mix::kNeighbourChain},
      {"near-parallel pairs", 1e-14, Mix::kParallelPairs}};
  Rng rng(45);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // A = Q·diag(σ)·Wᵀ with orthogonal Q, W and σⱼ = smin^(j/(n−1)).
    Matrix q = random_orthogonal(m, n, rng);
    Matrix w(n, n);
    if (c.mix == Mix::kRandom) {
      w = random_orthogonal(n, n, rng);
    } else if (c.mix == Mix::kNeighbourChain) {
      // Rotations of neighbouring directions keep column j's norm near σⱼ.
      w = identity(n);
      for (int j = 0; j + 1 < n; ++j) {
        const double th = rng.uniform(-0.6, 0.6);
        const double cs = std::cos(th), sn = std::sin(th);
        for (int i = 0; i < n; ++i) {
          const double x = w(i, j), y = w(i, j + 1);
          w(i, j) = cs * x - sn * y;
          w(i, j + 1) = sn * x + cs * y;
        }
      }
    } else {
      // Directions j and j+h mixed at 45°.
      const int h = n / 2;
      const double r = std::sqrt(0.5);
      for (int j = 0; j < h; ++j) {
        w(j, j) = w(j + h, j) = w(j, j + h) = r;
        w(j + h, j + h) = -r;
      }
    }
    std::vector<double> sigma(n);
    for (int j = 0; j < n; ++j) {
      sigma[j] = std::pow(c.smin, static_cast<double>(j) / (n - 1));
      for (int i = 0; i < m; ++i) q(i, j) *= sigma[j];
    }
    Matrix a(m, n);
    gemm(Trans::N, Trans::T, 1.0, q.view(), w.view(), 0.0, a.view());
    if (c.mix == Mix::kNeighbourChain) {
      const double* last = a.data() + static_cast<std::size_t>(n - 1) * m;
      ASSERT_LT(nrm2(m, last), 1e-11 * nrm2(m, a.data()))
          << "columns are not graded";
    }

    const Svd svd = jacobi_svd(a.view());
    const double fa = frob_norm(a.view());
    EXPECT_LE(projection_error(a, svd.u, n), bound * fa);
    for (int k = 0; k < n; ++k)
      EXPECT_NEAR(projection_error(a, svd.u, k), tail_norm(svd.s, k),
                  bound * fa)
          << "k=" << k;
    EXPECT_LE(orth_error(svd.u), bound);
    for (int j = 0; j < n; ++j)
      EXPECT_NEAR(svd.s[j], sigma[j], bound * sigma[0]) << "j=" << j;
  }
}

// ------------------------------------------------------------- utility ----

TEST(Util, RandomLowRankHasRequestedSpectrum) {
  Rng rng(51);
  Matrix a = random_lowrank(40, 30, 10, 1e-4, rng);
  auto s = singular_values(a.view());
  EXPECT_NEAR(s[0], 1.0, 1e-10);
  EXPECT_NEAR(s[9], 1e-4, 1e-10);
}

TEST(Util, SymmetrizeMirrors) {
  Matrix a(3, 3);
  a(1, 0) = 5.0;
  a(2, 1) = -2.0;
  symmetrize(Uplo::Lower, a.view());
  EXPECT_DOUBLE_EQ(a(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(a(1, 2), -2.0);
}

TEST(Util, BlockViewsAliasParent) {
  Matrix a(6, 6);
  auto blk = a.block(2, 3, 2, 2);
  blk(0, 0) = 9.0;
  EXPECT_DOUBLE_EQ(a(2, 3), 9.0);
}

// ------------------------------------------------------------- level-1 ----

// dot sums in eight partial sums plus a scalar remainder; every remainder
// length 0..7 and several full-lane counts must agree with an extended-
// precision reference within the classical n·eps·Σ|xᵢyᵢ| bound, and a NaN
// or Inf in any lane or in the remainder must reach the result.
TEST(Blas, DotMatchesReferenceAcrossRemainders) {
  const double eps = std::numeric_limits<double>::epsilon();
  std::vector<int> sizes;
  for (int n = 0; n <= 37; ++n) sizes.push_back(n);
  sizes.push_back(1000);
  Rng rng(46);
  for (const int n : sizes) {
    std::vector<double> x(n), y(n);
    long double ref = 0.0L;
    double mag = 0.0;
    for (int i = 0; i < n; ++i) {
      x[i] = rng.uniform(-1.0, 1.0);
      y[i] = rng.uniform(-1.0, 1.0);
      ref += static_cast<long double>(x[i]) * y[i];
      mag += std::abs(x[i] * y[i]);
    }
    EXPECT_LE(std::abs(dot(n, x.data(), y.data()) - static_cast<double>(ref)),
              n * eps * mag)
        << "n=" << n;
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const int n : {1, 7, 8, 13, 37}) {
    for (const int pos : {0, n / 2, n - 1}) {
      std::vector<double> x(n, 1.0), y(n, 1.0);
      x[pos] = nan;
      EXPECT_TRUE(std::isnan(dot(n, x.data(), y.data())))
          << "n=" << n << " pos=" << pos;
      x[pos] = inf;
      EXPECT_EQ(dot(n, x.data(), y.data()), inf) << "n=" << n << " pos=" << pos;
      y[pos] = 0.0;  // Inf * 0 = NaN, no zero-skip
      EXPECT_TRUE(std::isnan(dot(n, x.data(), y.data())))
          << "n=" << n << " pos=" << pos;
    }
  }
  // Opposite infinities in different partial sums still meet as NaN.
  std::vector<double> x(37, 1.0), y(37, 1.0);
  x[3] = inf;
  x[34] = -inf;
  EXPECT_TRUE(std::isnan(dot(37, x.data(), y.data())));
}

// nrm2 sums the squares in one pass and falls back to a scaled loop when
// that sum is zero, below DBL_MIN/eps, or not finite. Against a
// long-double reference it must stay within 2·(n + 2)·eps relative (plus
// one denormal step, for results that are themselves denormal) at every
// remainder length and magnitude, on both sides of the fallback's edges:
// magnitudes whose squares sum near 1e-292 or overflow, one huge entry
// among tiny ones, denormals and all zeros. A NaN must make the result NaN
// and a lone ±Inf +Inf, at the first, a middle and the last position.
TEST(Util, Nrm2HandlesExtremeValues) {
  std::vector<double> big(3, 1e200);
  EXPECT_NEAR(nrm2(3, big.data()) / (1e200 * std::sqrt(3.0)), 1.0, 1e-12);
  std::vector<double> tiny(4, 1e-200);
  EXPECT_NEAR(nrm2(4, tiny.data()) / (1e-200 * 2.0), 1.0, 1e-12);

  const double eps = std::numeric_limits<double>::epsilon();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const auto check = [&](const std::vector<double>& x, const char* what) {
    const int n = static_cast<int>(x.size());
    long double ref = 0.0L;
    for (const double v : x) ref += static_cast<long double>(v) * v;
    ref = std::sqrt(ref);
    const double got = nrm2(n, x.data());
    EXPECT_LE(std::abs(static_cast<long double>(got) - ref),
              2.0L * (n + 2) * eps * ref + denorm)
        << what << " n=" << n << " got " << got << " want "
        << static_cast<double>(ref);
  };
  Rng rng(47);
  const double mags[] = {1e-300, 1e-200, 1e-160, 1e-155, 1e-150, 1e-147,
                         1e-146, 1e-145, 1e-100, 1.0,    1e100,  1e150,
                         1e153,  1e154,  1e155,  1e160,  1e200,  1e300};
  for (int n = 0; n <= 17; ++n) {
    for (const double mag : mags) {
      std::vector<double> x(static_cast<std::size_t>(n));
      for (double& v : x) v = mag * rng.uniform(-1.0, 1.0);
      check(x, "uniform");
    }
    if (n == 0) continue;
    for (const int pos : {0, n / 2, n - 1}) {
      std::vector<double> x(static_cast<std::size_t>(n), 1e-300);
      x[static_cast<std::size_t>(pos)] = 1e300;
      check(x, "one huge among tiny");
      x[static_cast<std::size_t>(pos)] = 1.0;
      check(x, "one moderate among tiny");
    }
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = (i + 1) * denorm;
    check(x, "denormal");
    x.assign(static_cast<std::size_t>(n), 0.0);
    EXPECT_EQ(nrm2(n, x.data()), 0.0) << "zeros n=" << n;
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const int n : {1, 7, 8, 9, 16, 17, 128}) {
    for (const int pos : {0, n / 2, n - 1}) {
      std::vector<double> x(static_cast<std::size_t>(n), 0.5);
      x[static_cast<std::size_t>(pos)] = nan;
      EXPECT_TRUE(std::isnan(nrm2(n, x.data()))) << "n=" << n << " pos=" << pos;
      x[static_cast<std::size_t>(pos)] = inf;
      EXPECT_EQ(nrm2(n, x.data()), inf) << "n=" << n << " pos=" << pos;
      x[static_cast<std::size_t>(pos)] = -inf;
      EXPECT_EQ(nrm2(n, x.data()), inf) << "n=" << n << " pos=" << pos;
      if (n > 1) {  // a NaN anywhere wins over an Inf
        x[static_cast<std::size_t>((pos + 1) % n)] = nan;
        EXPECT_TRUE(std::isnan(nrm2(n, x.data())))
            << "n=" << n << " pos=" << pos;
      }
    }
  }
}

// all_finite folds every entry into one sum and tests it once: a NaN,
// +Inf or −Inf at any position of a padded 13×5 view must make it false,
// and non-finite values in the padding alone must not.
TEST(Util, AllFiniteFindsEveryNonFiniteEntryAndIgnoresPadding) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int m = 13, n = 5, ld = 16;
  std::vector<double> store(static_cast<std::size_t>(ld) * n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < ld; ++i)
      store[static_cast<std::size_t>(j) * ld + i] =
          i < m ? (i - 6) * 1e300 + j : (i % 2 == 0 ? nan : -inf);
  const ConstMatrixView view(store.data(), m, n, ld);
  EXPECT_TRUE(all_finite(view));
  EXPECT_TRUE(all_finite(view.block(0, 0, 0, 0)));
  for (const double bad : {nan, inf, -inf}) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) {
        double& e = store[static_cast<std::size_t>(j) * ld + i];
        const double keep = e;
        e = bad;
        EXPECT_FALSE(all_finite(view)) << bad << " at (" << i << "," << j
                                       << ")";
        e = keep;
      }
    }
  }
  EXPECT_TRUE(all_finite(view));
}
