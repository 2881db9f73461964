// Unit tests for ptlr::hcore — the ten (region)-kernels of Section VI.
//
// Every kernel variant is validated against its dense counterpart on the
// same data, and the whole family is exercised end-to-end by a sequential
// tile Cholesky factorization whose backward error must meet the
// compression threshold.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"
#include "hcore/kernels.hpp"
#include "hcore/scratch.hpp"
#include "stars/problem.hpp"
#include "tlr/tlr_matrix.hpp"

using namespace ptlr;
using namespace ptlr::dense;
using namespace ptlr::hcore;
using ptlr::tlr::Tile;
using ptlr::tlr::TlrMatrix;
using flops::Kernel;

namespace {

constexpr int kB = 24;      // tile size for kernel tests
constexpr int kRank = 5;    // operand rank
const Accuracy kAcc{1e-10, 1 << 30};

Tile lr_tile(int m, int n, int r, Rng& rng) {
  auto a = random_lowrank(m, n, r, 1.0, rng);
  auto f = compress::compress(a.view(), kAcc);
  return Tile::make_lowrank(std::move(*f));
}

Tile spd_tile(int n, Rng& rng) { return Tile::make_dense(random_spd(n, rng)); }

// Dense reference of the update C -= A * B^T.
Matrix ref_update(const Tile& a, const Tile& b, const Tile& c) {
  Matrix out = c.to_dense();
  Matrix ad = a.to_dense(), bd = b.to_dense();
  gemm(Trans::N, Trans::T, -1.0, ad.view(), bd.view(), 1.0, out.view());
  return out;
}

}  // namespace

// --------------------------------------------------------------- POTRF ----

TEST(HcorePotrf, MatchesDensePotrf) {
  Rng rng(1);
  Matrix a = random_spd(kB, rng);
  Tile t = Tile::make_dense(a);
  EXPECT_EQ(potrf(t), Kernel::kPotrf1);
  Matrix want = a;
  dense::potrf(Uplo::Lower, want.view());
  // Compare lower triangles.
  for (int j = 0; j < kB; ++j)
    for (int i = j; i < kB; ++i)
      EXPECT_NEAR(t.dense_data()(i, j), want(i, j), 1e-12);
}

TEST(HcorePotrf, RejectsLowRankTile) {
  Rng rng(2);
  Tile t = lr_tile(kB, kB, kRank, rng);
  EXPECT_THROW(potrf(t), ptlr::Error);
}

// ---------------------------------------------------------------- TRSM ----

TEST(HcoreTrsm, DenseVariantMatchesBlas) {
  Rng rng(3);
  Tile l = spd_tile(kB, rng);
  potrf(l);
  Matrix b0(kB, kB);
  fill_uniform(b0.view(), rng);
  Tile bt = Tile::make_dense(b0);
  EXPECT_EQ(trsm(l, bt), Kernel::kTrsm1);
  Matrix want = b0;
  dense::trsm(Side::Right, Uplo::Lower, Trans::T, Diag::NonUnit, 1.0,
              l.dense_data().view(), want.view());
  EXPECT_LT(frob_diff(bt.dense_data().view(), want.view()), 1e-12);
}

TEST(HcoreTrsm, LowRankVariantMatchesDenseSolve) {
  Rng rng(4);
  Tile l = spd_tile(kB, rng);
  potrf(l);
  Tile bt = lr_tile(kB, kB, kRank, rng);
  Matrix want = bt.to_dense();
  dense::trsm(Side::Right, Uplo::Lower, Trans::T, Diag::NonUnit, 1.0,
              l.dense_data().view(), want.view());
  EXPECT_EQ(trsm(l, bt), Kernel::kTrsm4);
  EXPECT_TRUE(bt.is_lowrank());
  EXPECT_EQ(bt.rank(), kRank);  // (4)-TRSM preserves the rank
  EXPECT_LT(frob_diff(bt.to_dense().view(), want.view()), 1e-9);
}

TEST(HcoreTrsm, RankZeroIsNoop) {
  Rng rng(5);
  Tile l = spd_tile(kB, rng);
  potrf(l);
  Tile z = Tile::make_lowrank({Matrix(kB, 0), Matrix(kB, 0)});
  EXPECT_EQ(trsm(l, z), Kernel::kTrsm4);
  EXPECT_EQ(z.rank(), 0);
}

// ---------------------------------------------------------------- SYRK ----

TEST(HcoreSyrk, DenseVariantMatchesBlas) {
  Rng rng(6);
  Matrix a(kB, kB);
  fill_uniform(a.view(), rng);
  Tile at = Tile::make_dense(a);
  Tile ct = spd_tile(kB, rng);
  Matrix want = ct.dense_data();
  EXPECT_EQ(syrk(at, ct), Kernel::kSyrk1);
  dense::syrk(Uplo::Lower, Trans::N, -1.0, a.view(), 1.0, want.view());
  for (int j = 0; j < kB; ++j)
    for (int i = j; i < kB; ++i)
      EXPECT_NEAR(ct.dense_data()(i, j), want(i, j), 1e-12);
}

TEST(HcoreSyrk, LowRankVariantMatchesDense) {
  Rng rng(7);
  Tile at = lr_tile(kB, kB, kRank, rng);
  Tile ct = spd_tile(kB, rng);
  Matrix want = ct.dense_data();
  Matrix ad = at.to_dense();
  gemm(Trans::N, Trans::T, -1.0, ad.view(), ad.view(), 1.0, want.view());
  EXPECT_EQ(syrk(at, ct), Kernel::kSyrk3);
  // Lower triangle must match the dense reference.
  for (int j = 0; j < kB; ++j)
    for (int i = j; i < kB; ++i)
      EXPECT_NEAR(ct.dense_data()(i, j), want(i, j), 1e-9);
}

// ---------------------------------------------------- GEMM: dense output ---

TEST(HcoreGemm, DenseDenseDense) {
  Rng rng(8);
  Matrix am(kB, kB), bm(kB, kB), cm(kB, kB);
  fill_uniform(am.view(), rng);
  fill_uniform(bm.view(), rng);
  fill_uniform(cm.view(), rng);
  Tile a = Tile::make_dense(am), b = Tile::make_dense(bm),
       c = Tile::make_dense(cm);
  Matrix want = ref_update(a, b, c);
  EXPECT_EQ(gemm(a, b, c, kAcc), Kernel::kGemm1);
  EXPECT_LT(frob_diff(c.dense_data().view(), want.view()), 1e-12);
}

TEST(HcoreGemm, LowRankTimesDenseIntoDense) {
  Rng rng(9);
  Tile a = lr_tile(kB, kB, kRank, rng);
  Matrix bm(kB, kB), cm(kB, kB);
  fill_uniform(bm.view(), rng);
  fill_uniform(cm.view(), rng);
  Tile b = Tile::make_dense(bm), c = Tile::make_dense(cm);
  Matrix want = ref_update(a, b, c);
  EXPECT_EQ(gemm(a, b, c, kAcc), Kernel::kGemm2);
  EXPECT_LT(frob_diff(c.dense_data().view(), want.view()), 1e-10);
}

TEST(HcoreGemm, DenseTimesLowRankIntoDense) {
  Rng rng(10);
  Matrix am(kB, kB), cm(kB, kB);
  fill_uniform(am.view(), rng);
  fill_uniform(cm.view(), rng);
  Tile a = Tile::make_dense(am);
  Tile b = lr_tile(kB, kB, kRank, rng);
  Tile c = Tile::make_dense(cm);
  Matrix want = ref_update(a, b, c);
  EXPECT_EQ(gemm(a, b, c, kAcc), Kernel::kGemm2);
  EXPECT_LT(frob_diff(c.dense_data().view(), want.view()), 1e-10);
}

TEST(HcoreGemm, LowRankTimesLowRankIntoDense) {
  Rng rng(11);
  Tile a = lr_tile(kB, kB, kRank, rng);
  Tile b = lr_tile(kB, kB, kRank + 2, rng);
  Matrix cm(kB, kB);
  fill_uniform(cm.view(), rng);
  Tile c = Tile::make_dense(cm);
  Matrix want = ref_update(a, b, c);
  EXPECT_EQ(gemm(a, b, c, kAcc), Kernel::kGemm3);
  EXPECT_LT(frob_diff(c.dense_data().view(), want.view()), 1e-10);
}

// ------------------------------------------------- GEMM: low-rank output ---

TEST(HcoreGemm, LowRankTimesDenseIntoLowRank) {
  Rng rng(12);
  Tile a = lr_tile(kB, kB, kRank, rng);
  Matrix bm(kB, kB);
  fill_uniform(bm.view(), rng);
  Tile b = Tile::make_dense(bm);
  Tile c = lr_tile(kB, kB, 4, rng);
  Matrix want = ref_update(a, b, c);
  EXPECT_EQ(gemm(a, b, c, kAcc), Kernel::kGemm5);
  ASSERT_TRUE(c.is_lowrank());
  EXPECT_LT(frob_diff(c.to_dense().view(), want.view()),
            1e-8 * frob_norm(want.view()) + 1e-9);
}

TEST(HcoreGemm, HcoreDgemmAllLowRank) {
  Rng rng(13);
  Tile a = lr_tile(kB, kB, kRank, rng);
  Tile b = lr_tile(kB, kB, kRank + 3, rng);
  Tile c = lr_tile(kB, kB, 4, rng);
  Matrix want = ref_update(a, b, c);
  EXPECT_EQ(gemm(a, b, c, kAcc), Kernel::kGemm6);
  ASSERT_TRUE(c.is_lowrank());
  EXPECT_LT(frob_diff(c.to_dense().view(), want.view()),
            1e-8 * frob_norm(want.view()) + 1e-9);
  // The recompressed rank stays at most k_C + min(k_A, k_B).
  EXPECT_LE(c.rank(), 4 + kRank);
}

TEST(HcoreGemm, RecompressionKeepsRankMinimal) {
  // Subtracting the product right back should return (close to) the
  // original rank, not the inflated concatenation.
  Rng rng(14);
  Tile a = lr_tile(kB, kB, 3, rng);
  Tile b = lr_tile(kB, kB, 3, rng);
  Tile c = lr_tile(kB, kB, 4, rng);
  Matrix before = c.to_dense();
  gemm(a, b, c, kAcc);   // C -= A B^T
  // Now add the product back by negating a and updating again.
  for (int j = 0; j < a.lr().u.cols(); ++j)
    for (int i = 0; i < kB; ++i) a.lr().u(i, j) = -a.lr().u(i, j);
  gemm(a, b, c, kAcc);   // C += A B^T
  EXPECT_LT(frob_diff(c.to_dense().view(), before.view()), 1e-8);
  EXPECT_LE(c.rank(), 4 + 1);
}

TEST(HcoreGemm, DenseDenseIntoLowRankDensifiesOnDemand) {
  Rng rng(15);
  Matrix am(kB, kB), bm(kB, kB);
  fill_uniform(am.view(), rng);
  fill_uniform(bm.view(), rng);
  Tile a = Tile::make_dense(am), b = Tile::make_dense(bm);
  Tile c = lr_tile(kB, kB, 4, rng);
  Matrix want = ref_update(a, b, c);
  EXPECT_EQ(gemm(a, b, c, kAcc), Kernel::kGemm1);
  EXPECT_TRUE(c.is_dense());  // tile-based densification fallback
  EXPECT_LT(frob_diff(c.dense_data().view(), want.view()), 1e-9);
}

TEST(HcoreGemm, DenseTimesLowRankIntoLowRank) {
  Rng rng(16);
  Matrix am(kB, kB);
  fill_uniform(am.view(), rng);
  Tile a = Tile::make_dense(am);
  Tile b = lr_tile(kB, kB, kRank, rng);
  Tile c = lr_tile(kB, kB, 4, rng);
  Matrix want = ref_update(a, b, c);
  EXPECT_EQ(gemm(a, b, c, kAcc), Kernel::kGemm5);
  EXPECT_LT(frob_diff(c.to_dense().view(), want.view()),
            1e-8 * frob_norm(want.view()) + 1e-9);
}

TEST(HcoreGemm, RectangularTilesAreSupported) {
  // Tail tiles are shorter: A (20x24), B (16x24), C (20x16).
  Rng rng(17);
  Tile a = lr_tile(20, 24, 4, rng);
  Tile b = lr_tile(16, 24, 3, rng);
  Tile c = lr_tile(20, 16, 2, rng);
  Matrix want = ref_update(a, b, c);
  gemm(a, b, c, kAcc);
  EXPECT_LT(frob_diff(c.to_dense().view(), want.view()),
            1e-8 * frob_norm(want.view()) + 1e-9);
}

TEST(HcoreDispatch, ReturnsTheTaskModelKind) {
  // Every operand-format combination on real tiles: each entry point
  // returns the kind the Table I task model names for the same formats —
  // the model the BAND_SIZE tuner and the task graph price tasks by. A
  // low-rank C runs with `round` off and on; a dense C with it off, as the
  // graph runs it. The dense-A, low-rank-B GEMMs arise with a stray dense
  // tile left outside the band by a rank cap.
  Rng rng(29);
  const auto tile = [&](bool dense) {
    if (!dense) return lr_tile(kB, kB, kRank, rng);
    Matrix m(kB, kB);
    fill_uniform(m.view(), rng);
    return Tile::make_dense(std::move(m));
  };
  const auto operand = [](const Tile& t) {
    return Operand{t.is_dense(), t.is_dense() ? 0 : t.rank()};
  };
  Tile l = spd_tile(kB, rng);
  potrf(l);
  for (const bool ad : {true, false}) {
    Tile panel = tile(ad);
    const TaskCost tc = trsm_cost(operand(panel), kB);
    EXPECT_EQ(trsm(l, panel), tc.kernel) << "A dense " << ad;
    Tile diag = spd_tile(kB, rng);
    const TaskCost sc = syrk_cost(operand(panel), kB);
    EXPECT_EQ(syrk(panel, diag), sc.kernel) << "A dense " << ad;
    for (const TaskCost& c : {tc, sc}) {
      EXPECT_EQ(c.charged, c.kernel);
      EXPECT_DOUBLE_EQ(c.flops, flops::model(c.kernel, kB, ad ? 0 : kRank));
    }
    for (const bool bd : {true, false})
      for (const bool cd : {true, false})
        for (const bool round : {false, true}) {
          if (cd && round) continue;
          SCOPED_TRACE(testing::Message() << "A dense " << ad << ", B dense "
                                          << bd << ", C dense " << cd
                                          << ", round " << round);
          Tile a = tile(ad), b = tile(bd), c = tile(cd);
          const TaskCost gc =
              gemm_cost(operand(a), operand(b), operand(c), round, kB);
          EXPECT_EQ(gemm(a, b, c, kAcc, round), gc.kernel);
          // Every update of a low-rank C is charged its (5)/(6) entry.
          EXPECT_EQ(gc.charged,
                    cd ? gc.kernel
                       : (ad || bd ? Kernel::kGemm5 : Kernel::kGemm6));
          EXPECT_EQ(gc.rank, ad && bd && cd ? 1 : kRank);
          EXPECT_DOUBLE_EQ(gc.flops, flops::model(gc.charged, kB, gc.rank));
        }
  }
}

// ------------------------------------------ low-rank update accumulation ----

namespace {

// Dense reference of C - Σ_p A_p B_pᵀ.
Matrix ref_sum(const std::vector<Tile>& a, const std::vector<Tile>& b,
               const Tile& c) {
  Matrix out = c.to_dense();
  for (std::size_t p = 0; p < a.size(); ++p) {
    Matrix ad = a[p].to_dense(), bd = b[p].to_dense();
    gemm(Trans::N, Trans::T, -1.0, ad.view(), bd.view(), 1.0, out.view());
  }
  return out;
}

bool bitwise_equal(const Tile& x, const Tile& y) {
  if (x.is_dense() != y.is_dense()) return false;
  const Matrix a = x.is_dense() ? x.dense_data() : x.lr().u;
  const Matrix b = y.is_dense() ? y.dense_data() : y.lr().u;
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      if (a(i, j) != b(i, j)) return false;
  if (x.is_dense()) return true;
  const Matrix& va = x.lr().v;
  const Matrix& vb = y.lr().v;
  for (int j = 0; j < va.cols(); ++j)
    for (int i = 0; i < va.rows(); ++i)
      if (va(i, j) != vb(i, j)) return false;
  return true;
}

// The panel pairs (A(i,k), A(j,k)) of `steps` steps, of rank r, with a
// dense B(j,k) every third step when `some_dense` — the update sequence
// of one low-rank tile in a band > 1 factorization.
struct Pending {
  std::vector<Tile> a, b;
  Pending(int steps, int m, int n, int r, Rng& rng, bool some_dense) {
    for (int k = 0; k < steps; ++k) {
      a.push_back(lr_tile(m, kB, r, rng));
      if (some_dense && k % 3 == 2) {
        Matrix bm(n, kB);
        fill_uniform(bm.view(), rng);
        b.push_back(Tile::make_dense(bm));
      } else {
        b.push_back(lr_tile(n, kB, r, rng));
      }
    }
  }
  // Run the tile's update tasks in step order, as the Cholesky does: only
  // the last one rounds. Returns the kernel each step reported.
  std::vector<Kernel> apply(Tile& c, const Accuracy& acc) const {
    std::vector<Kernel> kinds;
    for (std::size_t k = 0; k < a.size(); ++k)
      kinds.push_back(gemm(a[k], b[k], c, acc, k + 1 == a.size()));
    return kinds;
  }
};

}  // namespace

TEST(HcoreAccumulate, UpdatesAccumulateDenselyAndRoundOnce) {
  Rng rng(40);
  const Pending p(4, kB, kB, 3, rng, /*some_dense=*/false);
  Tile c = lr_tile(kB, kB, 4, rng);
  const Matrix want = ref_sum(p.a, p.b, c);
  // Before its last update the tile is its own dense accumulator, and each
  // update is the dense-output (3)-GEMM of two low-rank operands.
  Tile mid = c;
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(gemm(p.a[k], p.b[k], mid, kAcc, /*round=*/false),
              Kernel::kGemm3);
    EXPECT_TRUE(mid.is_dense());
  }
  const std::vector<Kernel> kinds = p.apply(c, kAcc);
  EXPECT_EQ(kinds.back(), Kernel::kGemm6);
  ASSERT_TRUE(c.is_lowrank());
  EXPECT_LE(c.rank(), 4 + 4 * 3);
  EXPECT_LT(frob_diff(c.to_dense().view(), want.view()), 1e-9);
}

TEST(HcoreAccumulate, DenseOperandMakesTheRoundingA5Gemm) {
  // Steps 2 and 5 have a dense B(j,k): those updates are (2)-GEMMs, and a
  // dense operand in the last one makes the rounding a (5)-GEMM.
  Rng rng(41);
  const Pending p(6, kB, kB, 5, rng, /*some_dense=*/true);
  Tile c = lr_tile(kB, kB, 4, rng);
  const Matrix want = ref_sum(p.a, p.b, c);
  const std::vector<Kernel> kinds = p.apply(c, kAcc);
  EXPECT_EQ(kinds[2], Kernel::kGemm2);
  EXPECT_EQ(kinds[4], Kernel::kGemm3);
  EXPECT_EQ(kinds[5], Kernel::kGemm5);
  ASSERT_TRUE(c.is_lowrank());
  EXPECT_LT(frob_diff(c.to_dense().view(), want.view()), 1e-9);
}

TEST(HcoreAccumulate, RankZeroOperandsContributeNothing) {
  Rng rng(42);
  Pending p(2, kB, kB, 3, rng, /*some_dense=*/false);
  const Tile zero = Tile::make_lowrank({Matrix(kB, 0), Matrix(kB, 0)});
  p.a.push_back(zero);
  p.b.push_back(p.b[0]);
  p.a.push_back(p.a[1]);
  p.b.push_back(zero);
  Tile c = lr_tile(kB, kB, 4, rng);
  const Matrix want = ref_sum(p.a, p.b, c);
  p.apply(c, kAcc);
  EXPECT_LT(frob_diff(c.to_dense().view(), want.view()), 1e-9);

  // A rank-0 last update: the rounded tile keeps the rank it had.
  Tile d = lr_tile(kB, kB, 4, rng);
  const Matrix before = d.to_dense();
  EXPECT_EQ(gemm(zero, zero, d, kAcc, /*round=*/true), Kernel::kGemm6);
  ASSERT_TRUE(d.is_lowrank());
  EXPECT_EQ(d.rank(), 4);
  EXPECT_LT(frob_diff(d.to_dense().view(), before.view()), 1e-9);
}

TEST(HcoreAccumulate, RectangularTailTiles) {
  // Tail tiles are shorter: A(i,k) 20x24, A(j,k) 16x24, C 20x16.
  for (const int r : {2, 5}) {
    Rng rng(43 + r);
    const Pending p(3, 20, 16, r, rng, /*some_dense=*/false);
    Tile c = lr_tile(20, 16, 2, rng);
    const Matrix want = ref_sum(p.a, p.b, c);
    p.apply(c, kAcc);
    ASSERT_TRUE(c.is_lowrank()) << "r=" << r;
    EXPECT_EQ(c.rows(), 20);
    EXPECT_EQ(c.cols(), 16);
    EXPECT_LT(frob_diff(c.to_dense().view(), want.view()), 1e-9)
        << "r=" << r;
  }
}

TEST(HcoreAccumulate, RankPastMaxrankLeavesExactDenseTile) {
  // The accumulated rank passes the cap of 6: the tile keeps the exact sum
  // densely instead of a truncated factor.
  for (const int steps : {2, 5}) {
    Rng rng(50 + steps);
    const Pending p(steps, kB, kB, 4, rng, /*some_dense=*/false);
    Tile c = lr_tile(kB, kB, 4, rng);
    const Matrix want = ref_sum(p.a, p.b, c);
    p.apply(c, Accuracy{1e-12, 6});
    ASSERT_TRUE(c.is_dense()) << "steps=" << steps;
    EXPECT_LT(frob_diff(c.dense_data().view(), want.view()), 1e-9)
        << "steps=" << steps;
  }
}

TEST(HcoreAccumulate, DensifyRatioKeepsTheSumDense) {
  Rng rng(60);
  const Pending p(2, kB, kB, 4, rng, /*some_dense=*/false);
  Tile loose = lr_tile(kB, kB, 4, rng);
  Tile tight = loose;
  const Matrix want = ref_sum(p.a, p.b, loose);
  Accuracy acc = kAcc;
  acc.densify_ratio = 0.9;  // rank 12 of 24 stays low-rank
  p.apply(loose, acc);
  EXPECT_TRUE(loose.is_lowrank());
  acc.densify_ratio = 0.25;  // rank 12 > 6: keep the sum dense
  p.apply(tight, acc);
  ASSERT_TRUE(tight.is_dense());
  EXPECT_LT(frob_diff(tight.dense_data().view(), want.view()), 1e-9);
}

TEST(HcoreAccumulate, OneUpdateThatRoundsIsExactlyGemm) {
  // gemm() on a low-rank C is a single update that rounds, bit for bit.
  Rng rng(61);
  for (const bool dense_b : {false, true}) {
    const Tile a = lr_tile(kB, kB, kRank, rng);
    Matrix bm(kB, kB);
    fill_uniform(bm.view(), rng);
    const Tile b =
        dense_b ? Tile::make_dense(bm) : lr_tile(kB, kB, kRank + 2, rng);
    Tile c1 = lr_tile(kB, kB, 4, rng);
    Tile c2 = c1;
    const Kernel k1 = gemm(a, b, c1, kAcc);
    const Kernel k2 = gemm(a, b, c2, kAcc, /*round=*/true);
    EXPECT_EQ(k1, k2);
    EXPECT_EQ(k1, dense_b ? Kernel::kGemm5 : Kernel::kGemm6);
    EXPECT_TRUE(bitwise_equal(c1, c2)) << "dense_b=" << dense_b;
  }
}

TEST(HcoreAccumulate, DenseBandTileWithoutRoundIsAPlainDenseGemm) {
  // A band tile is dense from the start and never rounded.
  Rng rng(62);
  const Tile a = lr_tile(kB, kB, kRank, rng);
  const Tile b = lr_tile(kB, kB, kRank, rng);
  Matrix cm(kB, kB);
  fill_uniform(cm.view(), rng);
  Tile c1 = Tile::make_dense(cm);
  Tile c2 = c1;
  EXPECT_EQ(gemm(a, b, c1, kAcc, /*round=*/false), Kernel::kGemm3);
  EXPECT_EQ(gemm(a, b, c2, kAcc), Kernel::kGemm3);
  EXPECT_TRUE(c1.is_dense());
  EXPECT_TRUE(bitwise_equal(c1, c2));
}

// --------------------------------------- end-to-end sequential Cholesky ----

namespace {

// Right-looking tile Cholesky over hcore kernels (the reference workflow
// the runtime version must reproduce).
void tile_cholesky(TlrMatrix& m, const Accuracy& acc) {
  for (int k = 0; k < m.nt(); ++k) {
    potrf(m.at(k, k));
    for (int i = k + 1; i < m.nt(); ++i) trsm(m.at(k, k), m.at(i, k));
    for (int i = k + 1; i < m.nt(); ++i) {
      syrk(m.at(i, k), m.at(i, i));
      for (int j = k + 1; j < i; ++j)
        gemm(m.at(i, k), m.at(j, k), m.at(i, j), acc);
    }
  }
}

// Assemble the lower-triangular factor from a factored tile matrix.
Matrix assemble_lower(const TlrMatrix& m) {
  Matrix l(m.n(), m.n());
  for (int i = 0; i < m.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      Matrix blk = m.at(i, j).to_dense();
      for (int c = 0; c < blk.cols(); ++c)
        for (int r = 0; r < blk.rows(); ++r) {
          if (i == j && r < c) continue;  // strictly upper part of diagonal
          l(m.row_offset(i) + r, m.row_offset(j) + c) = blk(r, c);
        }
    }
  return l;
}

}  // namespace

struct CholeskyCase {
  int n, b, band;
  double tol;
};

// gtest prints a case through PrintTo (and ctest names it by that text);
// without one a struct prints as its raw bytes.
void PrintTo(const CholeskyCase& c, std::ostream* os) {
  *os << "n=" << c.n << " b=" << c.b << " band=" << c.band
      << " tol=" << c.tol;
}

class TlrCholeskyTest : public ::testing::TestWithParam<CholeskyCase> {};

TEST_P(TlrCholeskyTest, BackwardErrorMeetsThreshold) {
  const auto p = GetParam();
  auto prob = stars::make_st3d_matern(p.n, 1.0, 0.5, 0.5, 29, 1e-1);
  Accuracy acc{p.tol, p.b / 2};
  auto m = TlrMatrix::from_problem(prob, p.b, acc, p.band);
  Matrix a = prob.block(0, 0, p.n, p.n);
  tile_cholesky(m, acc);
  Matrix l = assemble_lower(m);
  Matrix rec(p.n, p.n);
  gemm(Trans::N, Trans::T, 1.0, l.view(), l.view(), 0.0, rec.view());
  const double err = frob_diff(rec.view(), a.view()) / frob_norm(a.view());
  // Backward error should track the compression threshold (modulo growth
  // across NT panels), exactly as the paper validates against the
  // application accuracy (Section VIII-A).
  EXPECT_LT(err, p.tol * p.n);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, TlrCholeskyTest,
    ::testing::Values(CholeskyCase{128, 32, 1, 1e-6},
                      CholeskyCase{128, 32, 2, 1e-6},
                      CholeskyCase{192, 48, 1, 1e-7},
                      CholeskyCase{200, 32, 3, 1e-5},
                      CholeskyCase{256, 32, 2, 1e-8}));

TEST(TlrCholesky, LooserAccuracyGivesLowerRanks) {
  auto prob = stars::make_st3d_matern(256, 1.0, 0.5, 0.5, 31, 1e-1);
  // No rank cap so every off-diagonal tile compresses at both accuracies.
  auto tight = TlrMatrix::from_problem(prob, 32, {1e-8, 1 << 30}, 1);
  auto loose = TlrMatrix::from_problem(prob, 32, {1e-3, 1 << 30}, 1);
  EXPECT_LE(loose.rank_stats().avg, tight.rank_stats().avg);
}

// ------------------------------------------------------ scratch arena ----

TEST(ScratchArena, FrameRewindReusesBytes) {
  auto& ar = ScratchArena::local();
  ar.reset();
  double* first;
  {
    const ScratchArena::Frame f(ar);
    first = ar.alloc(100);
    first[0] = 1.0;
  }
  {
    const ScratchArena::Frame f(ar);
    double* again = ar.alloc(100);
    EXPECT_EQ(again, first);  // same bytes, no new allocation
  }
  EXPECT_EQ(ar.stats().chunk_allocs, 1);
}

TEST(ScratchArena, NestedFramesUnwindInOrder) {
  auto& ar = ScratchArena::local();
  ar.reset();
  const ScratchArena::Frame outer(ar);
  double* a = ar.alloc(10);
  {
    const ScratchArena::Frame inner(ar);
    double* b = ar.alloc(10);
    EXPECT_NE(a, b);
  }
  double* c = ar.alloc(10);
  EXPECT_EQ(c, a + 10);  // inner frame's bytes were rewound
}

TEST(ScratchArena, CoalescesToOneChunkAtSteadyState) {
  auto& ar = ScratchArena::local();
  ar.reset();
  {
    // Outgrow the first chunk on purpose: several chunks exist while the
    // frame is live...
    const ScratchArena::Frame f(ar);
    for (int i = 0; i < 6; ++i) ar.alloc(4096);
  }
  // ...and the full unwind coalesced them, so a same-sized working set
  // never allocates again.
  const auto before = ar.stats();
  {
    const ScratchArena::Frame f(ar);
    for (int i = 0; i < 6; ++i) ar.alloc(4096);
  }
  EXPECT_EQ(ar.stats().chunk_allocs, before.chunk_allocs);
}

TEST(ScratchArena, RepeatedKernelInvocationsStopAllocating) {
  // The point of the arena: after the first few GEMMs on a worker, kernel
  // temporaries come from the grown reserve — zero allocations per task.
  Rng rng(99);
  Tile a = lr_tile(kB, kB, kRank, rng);
  Tile b = lr_tile(kB, kB, kRank, rng);
  Tile c0 = Tile::make_dense(random_spd(kB, rng));
  hcore::gemm(a, b, c0, kAcc);  // warm the arena
  const auto before = ScratchArena::local().stats();
  for (int i = 0; i < 10; ++i) {
    Tile c = Tile::make_dense(random_spd(kB, rng));
    hcore::gemm(a, b, c, kAcc);
  }
  const auto after = ScratchArena::local().stats();
  EXPECT_EQ(after.chunk_allocs, before.chunk_allocs);
  EXPECT_EQ(after.bytes_reserved, before.bytes_reserved);
  EXPECT_GT(after.alloc_calls, before.alloc_calls);
}
