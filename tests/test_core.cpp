// Unit and integration tests for ptlr::core — rank maps, the BAND_SIZE
// auto-tuner, graph generation, the parallel BAND-DENSE-TLR Cholesky,
// virtual-cluster simulation, solves and the MLE pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <numbers>
#include <optional>
#include <set>

#include "core/band_tuner.hpp"
#include "core/cholesky.hpp"
#include "core/mle.hpp"
#include "core/solve.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"
#include "support/obs_scope.hpp"
#include "tlr/io.hpp"

using namespace ptlr;
using namespace ptlr::core;
using dense::Matrix;
using dense::Trans;

namespace {

stars::CovarianceProblem test_problem(int n, std::uint64_t seed = 7) {
  return stars::make_st3d_matern(n, 1.0, 0.5, 0.5, seed, 1e-1);
}

// A synthetic rank profile shaped like st-3D-exp: high first sub-diagonal
// ranks decaying polynomially (Fig. 1).
RankMap hard_map(int nt = 24, int b = 128) {
  RankDecayModel decay{b * 3 / 4, 4, 0.9};
  return RankMap::synthetic(nt, b, decay, 1);
}

// Easy profile (2D-like): tiny off-diagonal ranks.
RankMap easy_map(int nt = 24, int b = 128) {
  RankDecayModel decay{6, 2, 0.5};
  return RankMap::synthetic(nt, b, decay, 1);
}

}  // namespace

// ------------------------------------------------------------- RankMap ----

TEST(RankMap, SyntheticFollowsDecayModel) {
  RankDecayModel decay{64, 4, 1.0};
  auto m = RankMap::synthetic(10, 128, decay, 1);
  EXPECT_TRUE(m.is_dense(3, 3));
  EXPECT_FALSE(m.is_dense(3, 2));
  EXPECT_EQ(m.rank(3, 2), 64);   // d=1
  EXPECT_EQ(m.rank(5, 3), 32);   // d=2 → 64/2
  EXPECT_EQ(m.rank(9, 1), 8);    // d=8 → 64/8
}

TEST(RankMap, FromMatrixMatchesTiles) {
  auto prob = test_problem(160);
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-4, 1 << 30}, 1);
  auto m = RankMap::from_matrix(a);
  EXPECT_EQ(m.nt(), a.nt());
  for (int i = 0; i < m.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      EXPECT_EQ(m.is_dense(i, j), a.at(i, j).is_dense());
      EXPECT_EQ(m.rank(i, j), a.at(i, j).rank());
    }
  EXPECT_EQ(m.maxrank(), a.rank_stats().max);
  EXPECT_NEAR(m.avgrank(), a.rank_stats().avg, 1e-12);
}

TEST(RankMap, SetBandDensifies) {
  auto m = hard_map(8, 64);
  m.set_band(3);
  EXPECT_TRUE(m.is_dense(4, 2));   // d=2 < 3
  EXPECT_FALSE(m.is_dense(5, 2));  // d=3
  EXPECT_EQ(m.band_size(), 3);
}

TEST(RankMap, DecayFitRecoversSyntheticModel) {
  // Generate ranks from a known model via a fake matrix-free path: fit on
  // the synthetic map's sub-diagonal maxima reproduces the decay shape.
  RankDecayModel truth{48, 2, 1.0};
  auto m = RankMap::synthetic(20, 96, truth, 1);
  // Rebuild sub-diagonal maxima through a TlrMatrix-like fit by hand:
  // RankDecayModel::fit needs a matrix, so check rank_at consistency only.
  EXPECT_EQ(truth.rank_at(1), 48);
  EXPECT_EQ(truth.rank_at(48), 2);  // kmin floor is respected at 48^-1*48=1
  EXPECT_EQ(m.rank(10, 9), 48);
}

// ----------------------------------------------------------- CostModel ----

TEST(CostModel, DenseKernelsClassified) {
  EXPECT_TRUE(flops::is_dense_class(flops::Kernel::kPotrf1));
  EXPECT_TRUE(flops::is_dense_class(flops::Kernel::kGemm1));
  EXPECT_FALSE(flops::is_dense_class(flops::Kernel::kGemm6));
  EXPECT_FALSE(flops::is_dense_class(flops::Kernel::kTrsm4));
}

TEST(CostModel, DurationsScaleWithFlops) {
  CostModel cm({1e9, 1e9});
  EXPECT_DOUBLE_EQ(cm.duration(flops::Kernel::kGemm1, 100, 0),
                   2e6 / 1e9);
  EXPECT_GT(cm.duration(flops::Kernel::kGemm6, 100, 50),
            cm.duration(flops::Kernel::kGemm6, 100, 5));
}

TEST(CostModel, CalibrationProducesPositiveRates) {
  auto r = KernelRates::calibrate(96, 12);
  EXPECT_GT(r.dense_rate, 1e6);
  EXPECT_GT(r.lr_rate, 1e6);
}

// ----------------------------------------------------------- BandTuner ----

TEST(BandTuner, HighNearDiagonalRanksWidenTheBand) {
  auto tuned = tune_band_size(hard_map());
  EXPECT_GT(tuned.band_size, 1);
}

TEST(BandTuner, LowRanksKeepBandOne) {
  auto tuned = tune_band_size(easy_map());
  EXPECT_EQ(tuned.band_size, 1);
}

TEST(BandTuner, ChosenBandIsInsideFluctuationBox) {
  auto tuned = tune_band_size(hard_map());
  const double fmin = *std::min_element(tuned.total_by_band.begin(),
                                        tuned.total_by_band.end());
  const double chosen =
      tuned.total_by_band[static_cast<std::size_t>(tuned.band_size - 1)];
  EXPECT_LE(chosen, fmin / tuned.fluctuation_lo);
  // And nothing smaller is inside the box.
  for (int w = 1; w < tuned.band_size; ++w) {
    EXPECT_GT(tuned.total_by_band[static_cast<std::size_t>(w - 1)],
              fmin / tuned.fluctuation_lo);
  }
}

TEST(BandTuner, MarginalComparisonFavorsDensifyingHighRankSubdiagonals) {
  auto tuned = tune_band_size(hard_map());
  // First sub-diagonal (rank 3b/4): TLR format must cost more flops than
  // dense — the Fig. 6c crossover that motivates densification.
  EXPECT_GT(tuned.tlr_subdiag[1], tuned.dense_subdiag[1]);
  // Far sub-diagonal: TLR much cheaper.
  EXPECT_LT(tuned.tlr_subdiag[20], tuned.dense_subdiag[20]);
}

TEST(BandTuner, TotalFlopsMatchesStandaloneEvaluation) {
  // F(w) priced alone (the whole-task sum a scan from wmax = w starts
  // with) against the running total of a scan from wmax = 8.
  auto map = hard_map(16, 64);
  auto tuned = tune_band_size(map, 8);
  for (int w = 1; w <= 8; ++w) {
    EXPECT_NEAR(tune_band_size(map, w).total_by_band.back(),
                tuned.total_by_band[static_cast<std::size_t>(w - 1)],
                1e-6 * tuned.total_by_band[0]);
  }
}

TEST(BandTuner, LooserFluctuationNeverWidensTheBand) {
  auto map = hard_map();
  const int tight = tune_band_size(map, 0, 1.0).band_size;
  const int loose = tune_band_size(map, 0, 0.5).band_size;
  EXPECT_LE(loose, tight);
}

// ---------------------------------------------------- outside-in scan ----
// The pick is the scan's (band_tuner.hpp). On the problems below F(W) has
// one minimum, so the scan must agree with the global rule it replaced,
// which stays here as the oracle.

namespace {

// The smallest W inside the box of the minimum over every candidate.
int global_pick(const BandTuneResult& t) {
  const double fmin =
      *std::min_element(t.total_by_band.begin(), t.total_by_band.end());
  for (std::size_t w = 1; w <= t.total_by_band.size(); ++w)
    if (t.total_by_band[w - 1] <= fmin / t.fluctuation_lo)
      return static_cast<int>(w);
  return 0;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Builds `prob` outside in and holds it against compressing every tile.
void expect_outside_in_matches(const stars::CovarianceProblem& prob, int b,
                               double tol, int nthreads) {
  const compress::Accuracy acc{tol, 1 << 30};
  const auto full = tlr::TlrMatrix::from_problem(prob, b, acc);
  const auto tuned = tune_band_size(RankMap::from_matrix(full));
  BandScan scan;
  const auto built = build_auto_band(prob, b, acc, nthreads, 0.67, &scan);
  const int pick = built.band_size();

  // One pick: the scan during the build, the scan over the full map, and
  // the global rule.
  EXPECT_EQ(pick, global_pick(tuned));
  EXPECT_EQ(pick, tuned.band_size);
  EXPECT_EQ(scan.band_size, pick);

  // The build priced F(wmax) down to the exit, pick - 1 (W = 1 without
  // one), each bitwise the full map's value: one evaluator prices both.
  ASSERT_EQ(scan.wmax, static_cast<int>(tuned.total_by_band.size()));
  ASSERT_EQ(static_cast<int>(scan.flops.size()),
            scan.wmax - std::max(pick - 1, 1) + 1);
  for (std::size_t k = 0; k < scan.flops.size(); ++k) {
    const int w = scan.wmax - static_cast<int>(k);
    EXPECT_EQ(bits(scan.flops[k]),
              bits(tuned.total_by_band[static_cast<std::size_t>(w - 1)]))
        << "F(" << w << ")";
  }

  // Low-rank exactly outside the band, and every tile bitwise from_problem's
  // at that band: compressed ones as compressed, band ones generated dense.
  const auto ref = tlr::TlrMatrix::from_problem(prob, b, acc, pick);
  for (int i = 0; i < built.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      EXPECT_EQ(built.at(i, j).is_lowrank(), i - j >= pick)
          << "tile (" << i << ", " << j << ")";
      EXPECT_EQ(tlr::tile_to_bytes(built.at(i, j)),
                tlr::tile_to_bytes(ref.at(i, j)))
          << "tile (" << i << ", " << j << ")";
    }
}

}  // namespace

TEST(BandScan, St3dExpPicksTheGlobalRule) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 1024);
  expect_outside_in_matches(prob, 64, 1e-6, 2);
}

TEST(BandScan, MaternNu15PicksTheGlobalRule) {
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DMatern, 1024, 11);
  expect_outside_in_matches(prob, 64, 1e-6, 3);
}

TEST(BandScan, MleFitCorrelationLengthsPickTheGlobalRule) {
  // mle_fit's problem (N = 1536, b = 128, tol 1e-6) across its bracket.
  for (const double theta2 : {0.02, 0.04, 0.0938, 0.16, 0.32, 0.64}) {
    SCOPED_TRACE(theta2);
    const auto prob = stars::make_st3d_matern(1536, 1.0, theta2, 0.5, 42,
                                              1e-2);
    expect_outside_in_matches(prob, 128, 1e-6, 2);
  }
}

TEST(BandScan, MoreTilesThanCandidates) {
  // nt = 66 > wmax = 64: sub-diagonals 64 and 65 are compressed under
  // every candidate, and F(64) is priced once both are complete.
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 1056);
  expect_outside_in_matches(prob, 16, 1e-6, 2);
}

TEST(BandScan, SyntheticMapPicksTheGlobalRuleBeyondTheCandidates) {
  for (const int nt : {72, 96}) {
    const auto map = hard_map(nt, 128);
    const auto tuned = tune_band_size(map);
    ASSERT_EQ(tuned.total_by_band.size(), 64u);
    EXPECT_EQ(tuned.band_size, global_pick(tuned)) << nt;
    EXPECT_GT(tuned.band_size, 1) << nt;
  }
}

TEST(BandScan, PriceReadsNoRankInsideTheCandidate) {
  // Two maps that differ only inside sub-diagonal w0 price every F(W) with
  // W >= w0 bitwise alike; below it they differ.
  const int nt = 80, w0 = 5;
  const auto map = hard_map(nt, 128);
  auto inner = map;
  inner.set_band(w0);  // every tile with i - j < w0 now dense
  const auto a = tune_band_size(map);
  const auto b = tune_band_size(inner);
  for (int w = w0; w <= 64; ++w)
    EXPECT_EQ(bits(a.total_by_band[static_cast<std::size_t>(w - 1)]),
              bits(b.total_by_band[static_cast<std::size_t>(w - 1)]))
        << "F(" << w << ")";
  EXPECT_NE(a.total_by_band[0], b.total_by_band[0]);
  // And the one-W evaluation agrees with the scan's running total.
  for (const int w : {1, 8, 64})
    EXPECT_NEAR(tune_band_size(map, w).total_by_band.back(),
                a.total_by_band[static_cast<std::size_t>(w - 1)],
                1e-12 * a.total_by_band[static_cast<std::size_t>(w - 1)]);
}

TEST(BandScan, ExitIsTheFirstCandidateOutsideTheRunningBox) {
  // Every W above the exit lies inside the box of the minimum over the
  // candidates priced so far (from wmax down to W); the exit is the first
  // that does not.
  const int nt = 40, b = 128;
  const auto map = hard_map(nt, b);
  const auto tuned = tune_band_size(map);
  const int exit = tuned.band_size - 1;
  ASSERT_GT(exit, 0);
  const double fmin_scanned = *std::min_element(
      tuned.total_by_band.begin() + exit, tuned.total_by_band.end());
  EXPECT_GT(tuned.total_by_band[static_cast<std::size_t>(exit - 1)],
            fmin_scanned / tuned.fluctuation_lo);
  for (int w = exit + 1; w <= nt; ++w)
    EXPECT_LE(tuned.total_by_band[static_cast<std::size_t>(w - 1)],
              *std::min_element(tuned.total_by_band.begin() + w - 1,
                                tuned.total_by_band.end()) /
                  tuned.fluctuation_lo)
        << "F(" << w << ") left the box of the running minimum";
}

// ------------------------------------------------- one Table I pricer ----
// tune_band_size's F(W) and the GraphStats of the graph built at band W
// price every task through one TaskCosts. They part only where the graph
// densifies a tile on demand (a dense·dense last update of a low-rank
// tile), which the graph tracks and the outside-in scan, by design, does
// not; each input below says at which W that happens, and is checked at
// every other W.

namespace {

// The bands W at which the unrolling densifies a tile on demand: some
// GEMM(i, j, j-1) reads a dense A and B and writes a low-rank C. The first
// such GEMM of the unrolling still sees the banded map's formats, so a
// band none of whose GEMMs does flips no tile at all.
std::vector<int> bands_that_flip(const RankMap& map, int wmax) {
  std::vector<int> out;
  for (int w = 1; w <= wmax; ++w) {
    RankMap m = map;
    m.set_band(w);
    bool flips = false;
    for (int i = 2; i < m.nt(); ++i)
      for (int j = 1; j < i; ++j)
        flips = flips || (!m.is_dense(i, j) && m.is_dense(i, j - 1) &&
                          m.is_dense(j, j - 1));
    if (flips) out.push_back(w);
  }
  return out;
}

// At every W outside `flipping`, F(W) equals the model_flops of
// graph_at(W), the graph built at band W.
void expect_tuner_prices_the_graph(
    const RankMap& map, const std::function<GraphStats(int)>& graph_at,
    const std::vector<int>& flipping) {
  const auto tuned = tune_band_size(map);
  const int wmax = static_cast<int>(tuned.total_by_band.size());
  ASSERT_EQ(bands_that_flip(map, wmax), flipping);
  for (int w = 1; w <= wmax; ++w) {
    if (std::find(flipping.begin(), flipping.end(), w) != flipping.end())
      continue;
    const double f = tuned.total_by_band[static_cast<std::size_t>(w - 1)];
    EXPECT_NEAR(graph_at(w).model_flops, f, 1e-12 * f) << "W = " << w;
  }
}

GraphStats modelled_graph_at(const RankMap& map, int w) {
  RankMap banded = map;
  banded.set_band(w);
  const CostModel cm({1e9, 1e9});
  GraphOptions opt;
  opt.cost = &cm;
  GraphStats stats;
  build_cholesky_graph(banded, opt, &stats);
  return stats;
}

GraphStats real_graph_at(const tlr::TlrMatrix& m, int w) {
  tlr::TlrMatrix banded = m;
  banded.densify_band(w);
  GraphStats stats;
  build_cholesky_graph(banded, GraphOptions{}, &stats);
  return stats;
}

}  // namespace

TEST(TaskCosts, TunerPricesTheGraphOfASyntheticMap) {
  // Every off-diagonal tile is low-rank: no W flips a tile.
  const RankMap map = hard_map();
  expect_tuner_prices_the_graph(
      map, [&](int w) { return modelled_graph_at(map, w); }, {});
}

TEST(TaskCosts, TunerPricesTheGraphOfACompressedProblem) {
  // N = 1000 leaves a 40-row last tile, which both price at b. No rank
  // reaches the cap, so every tile outside the band is low-rank and no W
  // flips a tile.
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 1000);
  const auto m = tlr::TlrMatrix::from_problem(prob, 64, {1e-6, 1 << 30});
  ASSERT_EQ(m.tile_rows(m.nt() - 1), 40);
  expect_tuner_prices_the_graph(
      RankMap::from_matrix(m), [&](int w) { return real_graph_at(m, w); },
      {});
}

TEST(TaskCosts, TunerPricesTheGraphWithAStrayDenseTile) {
  // nt = 4 with tile (3, 0) dense outside the band, as a rank past the cap
  // leaves it, and every other off-diagonal tile low-rank. At W = 1,
  // GEMM(3, 1, 0) and GEMM(3, 2, 0) read a dense A and a low-rank B: both
  // are charged the (5)-GEMM, and the first, the last update of (3, 1),
  // runs it. At W = 2, (1, 0) joins the band, so GEMM(3, 1, 0) is a
  // dense·dense last update that flips (3, 1) dense: that W is left out.
  const int b = 16, nt = 4;
  Rng rng(5);
  tlr::TlrMatrix m(nt * b, b);
  for (int i = 0; i < nt; ++i)
    for (int j = 0; j <= i; ++j) {
      if (i == j || (i == 3 && j == 0)) {
        Matrix d(b, b);
        dense::fill_uniform(d.view(), rng);
        m.at(i, j) = tlr::Tile::make_dense(std::move(d));
        continue;
      }
      const int r = 2 + i - j;
      Matrix u(b, r), v(b, r);
      dense::fill_uniform(u.view(), rng);
      dense::fill_uniform(v.view(), rng);
      m.at(i, j) = tlr::Tile::make_lowrank({std::move(u), std::move(v)});
    }
  expect_tuner_prices_the_graph(
      RankMap::from_matrix(m), [&](int w) { return real_graph_at(m, w); },
      {2});

  const auto g = build_cholesky_graph(m, GraphOptions{});
  std::map<std::string, int> kind;
  for (rt::TaskId t = 0; t < g.size(); ++t)
    kind[g.info(t).name] = g.info(t).kind;
  EXPECT_EQ(kind["gemm(3,1,0)"], static_cast<int>(flops::Kernel::kGemm5));
  EXPECT_EQ(kind["gemm(3,2,0)"], static_cast<int>(flops::Kernel::kGemm2));
}

// ----------------------------------------------------- graph generation ---

TEST(CholeskyGraph, TaskCountMatchesTileAlgorithm) {
  auto map = easy_map(6, 64);
  GraphOptions opt;
  CostModel cm({1e9, 1e9});
  opt.cost = &cm;
  GraphStats stats;
  auto g = build_cholesky_graph(map, opt, &stats);
  // nt potrf + nt(nt-1)/2 trsm + nt(nt-1)/2 syrk + nt(nt-1)(nt-2)/6 gemm.
  const int nt = 6;
  const int expect =
      nt + nt * (nt - 1) / 2 * 2 + nt * (nt - 1) * (nt - 2) / 6;
  EXPECT_EQ(g.size(), expect);
  EXPECT_GE(g.critical_path_length(), nt);
  // Every update of a low-rank tile charges the Table I flops of a
  // (6)-GEMM, though only the last one compresses: the model total is that
  // of the right-looking tile algorithm.
  const int b = 64;
  double want = 0.0;
  for (int k = 0; k < nt; ++k) {
    want += flops::model(flops::Kernel::kPotrf1, b, 0);
    for (int i = k + 1; i < nt; ++i) {
      want += flops::model(flops::Kernel::kTrsm4, b, map.rank(i, k));
      want += flops::model(flops::Kernel::kSyrk3, b, map.rank(i, k));
      for (int j = k + 1; j < i; ++j)
        want += flops::model(
            flops::Kernel::kGemm6, b,
            std::max({map.rank(i, k), map.rank(j, k), map.rank(i, j)}));
    }
  }
  EXPECT_NEAR(stats.model_flops, want, 1e-12 * want);
}

TEST(CholeskyGraph, LowRankTileIsCompressedOnlyByItsLastUpdate) {
  // Every tile (i, j) takes one GEMM per step k < j. On a low-rank tile
  // all but the last accumulate densely ((2)/(3)-GEMM) and only the one at
  // step j-1 is a (5)/(6)-GEMM, which compresses; a dense tile never
  // compresses. Each update depends only on its own step's panel tiles and
  // the tile's previous update.
  const int nt = 7;
  auto prob = test_problem(nt * 32);
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-6, 1 << 30}, 1);
  a.densify_band(3, &prob);
  auto g = build_cholesky_graph(a, GraphOptions{});
  std::map<std::pair<int, int>, int> rounds, gemms;
  for (rt::TaskId t = 0; t < g.size(); ++t) {
    const rt::TaskInfo& info = g.info(t);
    if (info.name.rfind("gemm(", 0) != 0) continue;
    const std::pair<int, int> tile{info.ti, info.tj};
    ++gemms[tile];
    EXPECT_LE(g.num_predecessors(t), 3) << info.name;
    const bool compresses =
        info.kind == static_cast<int>(flops::Kernel::kGemm5) ||
        info.kind == static_cast<int>(flops::Kernel::kGemm6);
    if (!compresses) continue;
    ++rounds[tile];
    EXPECT_TRUE(a.at(info.ti, info.tj).is_lowrank()) << info.name;
    EXPECT_EQ(info.panel, info.tj - 1) << info.name;
  }
  for (int i = 0; i < nt; ++i)
    for (int j = 1; j < i; ++j) {
      const std::pair<int, int> tile{i, j};
      EXPECT_EQ(gemms[tile], j) << i << "," << j;
      EXPECT_EQ(rounds[tile], a.at(i, j).is_lowrank() ? 1 : 0)
          << i << "," << j;
    }
}

TEST(CholeskyGraph, RecursionAddsSubTasks) {
  auto map = hard_map(6, 128);
  map.set_band(2);
  GraphOptions plain, rec;
  CostModel cm({1e9, 1e9});
  plain.cost = rec.cost = &cm;
  rec.recursive_all = true;
  rec.recursive_block = 32;
  GraphStats s1, s2;
  auto g1 = build_cholesky_graph(map, plain, &s1);
  auto g2 = build_cholesky_graph(map, rec, &s2);
  EXPECT_GT(g2.size(), g1.size());
  // Same modelled flops either way: recursion repartitions, not recounts.
  EXPECT_NEAR(s1.model_flops, s2.model_flops, 1e-6 * s1.model_flops);
}

TEST(CholeskyGraph, EveryRealTaskDeclaresOneRecoverableOutput) {
  // Real graphs carry no structural or sub-block tasks: every task writes
  // one whole tile, so every task is a fault-injection and recovery site.
  auto prob = test_problem(192);
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-6, 1 << 30}, 1);
  a.densify_band(3, &prob);
  GraphStats stats;
  auto g = build_cholesky_graph(a, GraphOptions{}, &stats);
  ASSERT_EQ(g.size(), stats.tasks);
  for (rt::TaskId t = 0; t < g.size(); ++t) {
    const rt::TaskInfo& info = g.info(t);
    ASSERT_EQ(info.outputs.size(), 1u) << info.name;
    EXPECT_TRUE(info.outputs[0].save && info.outputs[0].restore &&
                info.outputs[0].finite && info.outputs[0].poison)
        << info.name;
    EXPECT_GE(info.kind, 0) << info.name;
  }
}

TEST(CholeskyGraph, RecursionIsRejectedForRealGraphs) {
  auto prob = test_problem(128);
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-6, 1 << 30}, 1);
  GraphOptions all, potrf;
  all.recursive_all = true;
  potrf.recursive_potrf = true;
  EXPECT_THROW(build_cholesky_graph(a, all), ptlr::Error);
  EXPECT_THROW(build_cholesky_graph(a, potrf), ptlr::Error);
}

TEST(CholeskyGraph, RealGraphRunsTheTileAlgorithmUnsplit) {
  // A sub-block size without a recursion flag is inert: the real graph is
  // exactly the tile algorithm, with no split/merge structural tasks.
  const int nt = 6;
  auto prob = test_problem(nt * 32);
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-6, 1 << 30}, 1);
  a.densify_band(3, &prob);
  GraphOptions opt;
  opt.recursive_block = 8;
  auto g = build_cholesky_graph(a, opt);
  EXPECT_EQ(g.size(), nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6);
  for (rt::TaskId t = 0; t < g.size(); ++t) {
    const std::string& name = g.info(t).name;
    EXPECT_EQ(name.find("_split"), std::string::npos) << name;
    EXPECT_EQ(name.find("_merge"), std::string::npos) << name;
  }
}

TEST(CholeskyGraph, RealAndModelledGraphsAgreeWithoutRecursion) {
  // One builder serves both modes: from the same formats and ranks, the
  // real graph and the simulator's rank-map graph have the same shape.
  auto prob = test_problem(256);
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-6, 1 << 30}, 1);
  a.densify_band(2, &prob);
  const RankMap map = RankMap::from_matrix(a);
  CostModel cm({1e9, 3.3e8});
  GraphOptions opt;
  opt.cost = &cm;
  GraphStats s_real, s_model;
  auto g_real = build_cholesky_graph(a, opt, &s_real);
  auto g_model = build_cholesky_graph(map, opt, &s_model);
  EXPECT_EQ(g_real.size(), g_model.size());
  EXPECT_EQ(g_real.critical_path_length(), g_model.critical_path_length());
  EXPECT_EQ(s_real.tasks, s_model.tasks);
  EXPECT_EQ(s_real.tasks_band, s_model.tasks_band);
  EXPECT_DOUBLE_EQ(s_real.model_flops, s_model.model_flops);
  EXPECT_DOUBLE_EQ(s_real.model_flops_dense, s_model.model_flops_dense);
}

TEST(CholeskyGraph, PotrfOnlyRecursionSplitsFewerTasks) {
  // The simulator's two recursion modes (Prev: POTRF only; New: every
  // dense band kernel) nest: each adds sub-tasks, never flops.
  auto map = hard_map(8, 128);
  map.set_band(3);
  CostModel cm({1e9, 1e9});
  GraphOptions plain, potrf, all;
  plain.cost = potrf.cost = all.cost = &cm;
  potrf.recursive_potrf = true;
  all.recursive_all = true;
  potrf.recursive_block = all.recursive_block = 32;
  GraphStats sp, so, sa;
  auto gp = build_cholesky_graph(map, plain, &sp);
  auto go = build_cholesky_graph(map, potrf, &so);
  auto ga = build_cholesky_graph(map, all, &sa);
  EXPECT_GT(go.size(), gp.size());
  EXPECT_GT(ga.size(), go.size());
  EXPECT_NEAR(so.model_flops, sp.model_flops, 1e-9 * sp.model_flops);
  EXPECT_NEAR(sa.model_flops, sp.model_flops, 1e-9 * sp.model_flops);
}

TEST(CholeskyGraph, EdgeClassificationDependsOnDistribution) {
  auto map = easy_map(12, 64);
  CostModel cm({1e9, 1e9});
  rt::TwoDBlockCyclic d1(1, 1);
  rt::TwoDBlockCyclic d4(2, 2);
  GraphOptions o1, o4;
  o1.cost = o4.cost = &cm;
  o1.dist = &d1;
  o4.dist = &d4;
  auto g1 = build_cholesky_graph(map, o1);
  auto g4 = build_cholesky_graph(map, o4);
  EXPECT_EQ(g1.classify_edges().remote, 0);
  EXPECT_GT(g4.classify_edges().remote, 0);
}

TEST(CholeskyGraph, NoTlrGemmVariantDropsLowRankUpdates) {
  auto map = hard_map(16, 64);
  map.set_band(2);
  CostModel cm({1e9, 1e9});
  GraphOptions opt;
  opt.cost = &cm;
  GraphStats all, cp;
  auto g1 = build_cholesky_graph(map, opt, &all);
  auto g2 = build_cholesky_graph_no_tlr_gemm(map, opt, &cp);
  EXPECT_LT(g2.size(), g1.size());
  EXPECT_LT(cp.model_flops, all.model_flops);
  // The dense flop share is identical (only TLR GEMMs were dropped).
  EXPECT_NEAR(cp.model_flops_dense, all.model_flops_dense,
              1e-9 * all.model_flops_dense);
}

// --------------------------------------------- shared-memory factorize ----

namespace {

Matrix assemble_lower(const tlr::TlrMatrix& m) {
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

double backward_error(const stars::CovarianceProblem& prob,
                      const tlr::TlrMatrix& factored) {
  Matrix a = prob.block(0, 0, prob.n(), prob.n());
  Matrix l = assemble_lower(factored);
  Matrix rec(prob.n(), prob.n());
  dense::gemm(Trans::N, Trans::T, 1.0, l.view(), l.view(), 0.0, rec.view());
  return dense::frob_diff(rec.view(), a.view()) /
         dense::frob_norm(a.view());
}

}  // namespace

struct FactorizeCase {
  int n, b, band, threads;
  double tol;
};

// gtest prints a case through PrintTo (and ctest names it by that text);
// without one a struct prints as its raw bytes.
void PrintTo(const FactorizeCase& c, std::ostream* os) {
  *os << "n=" << c.n << " b=" << c.b << " band=" << c.band
      << " threads=" << c.threads << " tol=" << c.tol;
}

class FactorizeTest : public ::testing::TestWithParam<FactorizeCase> {};

TEST_P(FactorizeTest, ParallelFactorizationIsAccurate) {
  const auto p = GetParam();
  auto prob = test_problem(p.n);
  compress::Accuracy acc{p.tol, p.b / 2};
  auto a = tlr::TlrMatrix::from_problem(prob, p.b, acc, 1);
  CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = p.band;
  cfg.nthreads = p.threads;
  auto res = factorize(a, &prob, cfg);
  EXPECT_GE(res.band_size, 1);
  EXPECT_LT(backward_error(prob, a), p.tol * p.n);
  EXPECT_GT(res.measured_flops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, FactorizeTest,
    ::testing::Values(
        FactorizeCase{128, 32, 1, 1, 1e-6},
        FactorizeCase{128, 32, 2, 2, 1e-6},
        FactorizeCase{192, 48, 0, 2, 1e-6},   // auto-tuned band
        FactorizeCase{192, 48, 2, 2, 1e-6},
        FactorizeCase{200, 32, 0, 4, 1e-5},   // uneven tail + auto
        FactorizeCase{256, 64, 3, 2, 1e-8}));

TEST(Factorize, AutoTunerPopulatesTuningCurves) {
  auto prob = test_problem(192);
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-6, 1 << 30}, 1);
  CholeskyConfig cfg;
  cfg.acc = {1e-6, 1 << 30};
  cfg.band_size = 0;
  cfg.nthreads = 2;
  auto res = factorize(a, &prob, cfg);
  EXPECT_FALSE(res.tuning.total_by_band.empty());
  EXPECT_EQ(res.band_size, res.tuning.band_size);
  EXPECT_GE(a.band_size(), res.band_size);
}

TEST(Factorize, TraceCoversAllPanels) {
  auto prob = test_problem(160, 13);
  auto a = tlr::TlrMatrix::from_problem(prob, 40, {1e-6, 1 << 30}, 1);
  CholeskyConfig cfg;
  cfg.acc = {1e-6, 1 << 30};
  cfg.band_size = 1;
  cfg.nthreads = 2;
  const ptlr::testing::ObsScope traced;
  auto res = factorize(a, &prob, cfg);
  auto release = obs::panel_release_times(obs::run_spans(res.exec.run));
  ASSERT_EQ(static_cast<int>(release.size()), a.nt());
  for (std::size_t k = 1; k < release.size(); ++k)
    EXPECT_GE(release[k], release[k - 1]);
}

// ----------------------------------------------------- simulated runs ----

TEST(SimulateCholesky, StrongScalingOnVirtualCluster) {
  auto map = hard_map(32, 256);
  map.set_band(2);
  VirtualClusterConfig cfg;
  cfg.rates = {1e9, 3.3e8};
  cfg.cores_per_node = 4;
  cfg.nodes = 1;
  const double t1 = simulate_cholesky(map, cfg).sim.makespan;
  cfg.nodes = 4;
  const double t4 = simulate_cholesky(map, cfg).sim.makespan;
  cfg.nodes = 16;
  const double t16 = simulate_cholesky(map, cfg).sim.makespan;
  EXPECT_LT(t4, t1);
  EXPECT_LT(t16, t4);
}

TEST(SimulateCholesky, BandDistributionBeatsPlain2DBCOnBandHeavyMaps) {
  // Regime calibrated offline: a wide tuned band plus non-negligible
  // communication, where the hybrid distribution's balanced panel and
  // row-local dataflow pay off (Section VII-C). A low-rank tile's updates
  // accumulate densely and only its last one compresses, so the low-rank
  // work is light next to the band's and the regime sits at 8 nodes.
  RankDecayModel decay{256 * 6 / 10, 4, 0.9};
  auto map = RankMap::synthetic(48, 256, decay, 1);
  map.set_band(tune_band_size(map).band_size);
  VirtualClusterConfig band, plain;
  band.rates = plain.rates = {1e9, 3.3e8};
  band.nodes = plain.nodes = 8;
  band.cores_per_node = plain.cores_per_node = 8;
  band.comm.bandwidth = plain.comm.bandwidth = 1e9;
  band.band_distribution = true;
  plain.band_distribution = false;
  const double tb = simulate_cholesky(map, band).sim.makespan;
  const double tp = simulate_cholesky(map, plain).sim.makespan;
  EXPECT_LT(tb, tp);
}

TEST(SimulateCholesky, RecursiveKernelsShortenMakespan) {
  auto map = hard_map(24, 256);
  map.set_band(3);
  VirtualClusterConfig rec, plain;
  rec.rates = plain.rates = {1e9, 3.3e8};
  rec.nodes = plain.nodes = 4;
  rec.cores_per_node = plain.cores_per_node = 8;
  plain.recursive_all = false;
  plain.recursive_potrf = false;
  rec.recursive_all = true;
  rec.recursive_block = 64;
  const double tr = simulate_cholesky(map, rec).sim.makespan;
  const double tp = simulate_cholesky(map, plain).sim.makespan;
  EXPECT_LT(tr, tp);
}

TEST(SimulateCholesky, RecursiveModelMatchesGoldenValues) {
  // The modelled recursion behind Table II and Figs. 9-12 is pinned: any
  // change to the split/sub-kernel/merge sub-DAG must update these values
  // on purpose.
  auto map = hard_map(12, 256);
  map.set_band(3);
  VirtualClusterConfig cfg;  // recursive_all and recursive_potrf default on
  cfg.rates = {1e9, 3.3e8};
  cfg.nodes = 4;
  cfg.cores_per_node = 4;
  cfg.recursive_block = 64;
  const auto res = simulate_cholesky(map, cfg);
  EXPECT_EQ(res.stats.tasks, 2988);
  EXPECT_EQ(res.stats.tasks_band, 199);
  EXPECT_EQ(res.sim.messages, 155);
  EXPECT_NEAR(res.stats.model_flops, 10263611471.0, 1e-12 * 1.1e10);
  EXPECT_NEAR(res.stats.model_flops_dense, 1107296256.0, 1e-12 * 1.2e9);
  EXPECT_NEAR(res.sim.makespan, 1.5891764776969721, 1e-12 * 1.6);
}

TEST(SimulateCholesky, NoTlrGemmIsSmallFlopsButLargeTime) {
  // Fig. 10: the dense band + panel is a tiny flop fraction yet most of
  // the time-to-solution.
  RankDecayModel decay{256 / 4, 4, 0.9};
  auto map = RankMap::synthetic(64, 256, decay, 1);
  map.set_band(tune_band_size(map).band_size);
  VirtualClusterConfig all, cp;
  all.rates = cp.rates = {1e9, 3.3e8};
  all.nodes = cp.nodes = 64;
  all.cores_per_node = cp.cores_per_node = 16;
  cp.no_tlr_gemm = true;
  auto ra = simulate_cholesky(map, all);
  auto rc = simulate_cholesky(map, cp);
  // Calibrated regime: the band+panel is under 20% of the flops yet more
  // than half the time-to-solution (Fig. 10's headline shape).
  EXPECT_LT(rc.stats.model_flops, 0.2 * ra.stats.model_flops);
  EXPECT_GT(rc.sim.makespan, 0.5 * ra.sim.makespan);
}

TEST(SimulateCholesky, MessageVolumeGrowsWithNodes) {
  auto map = easy_map(24, 128);
  VirtualClusterConfig cfg;
  cfg.rates = {1e9, 3.3e8};
  cfg.nodes = 2;
  const auto m2 = simulate_cholesky(map, cfg).sim;
  cfg.nodes = 8;
  const auto m8 = simulate_cholesky(map, cfg).sim;
  EXPECT_GT(m8.messages, m2.messages);
}

TEST(SimulateCholesky, OccupancyIsReasonable) {
  auto map = hard_map(32, 256);
  map.set_band(2);
  VirtualClusterConfig cfg;
  cfg.rates = {1e9, 3.3e8};
  cfg.nodes = 4;
  cfg.cores_per_node = 4;
  auto res = simulate_cholesky(map, cfg);
  for (int p = 0; p < 4; ++p) {
    const double occ = res.sim.occupancy(p, 4);
    EXPECT_GT(occ, 0.2);
    EXPECT_LE(occ, 1.0 + 1e-9);
  }
}

// ------------------------------------------------------- solve and MLE ----

TEST(Solve, MatchesDenseSolve) {
  auto prob = test_problem(160, 17);
  compress::Accuracy acc{1e-8, 1 << 30};
  auto a = tlr::TlrMatrix::from_problem(prob, 40, acc, 1);
  CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = 2;
  cfg.nthreads = 2;
  factorize(a, &prob, cfg);

  Rng rng(3);
  std::vector<double> z(160);
  for (auto& v : z) v = rng.gaussian();

  // Dense reference.
  Matrix ad = prob.block(0, 0, 160, 160);
  dense::potrf(dense::Uplo::Lower, ad.view());
  std::vector<double> want = z;
  dense::MatrixView rhs(want.data(), 160, 1, 160);
  dense::trsm(dense::Side::Left, dense::Uplo::Lower, Trans::N,
              dense::Diag::NonUnit, 1.0, ad.view(), rhs);
  dense::trsm(dense::Side::Left, dense::Uplo::Lower, Trans::T,
              dense::Diag::NonUnit, 1.0, ad.view(), rhs);

  auto got = solve(a, z);
  double diff = 0, norm = 0;
  for (int i = 0; i < 160; ++i) {
    diff += (got[static_cast<std::size_t>(i)] - want[static_cast<std::size_t>(i)]) *
            (got[static_cast<std::size_t>(i)] - want[static_cast<std::size_t>(i)]);
    norm += want[static_cast<std::size_t>(i)] * want[static_cast<std::size_t>(i)];
  }
  EXPECT_LT(std::sqrt(diff / norm), 1e-5);
}

TEST(Solve, LogDetMatchesDense) {
  auto prob = test_problem(128, 19);
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-9, 1 << 30}, 1);
  CholeskyConfig cfg;
  cfg.acc = {1e-9, 1 << 30};
  cfg.band_size = 2;
  cfg.nthreads = 2;
  factorize(a, &prob, cfg);

  Matrix ad = prob.block(0, 0, 128, 128);
  dense::potrf(dense::Uplo::Lower, ad.view());
  double want = 0;
  for (int i = 0; i < 128; ++i) want += 2.0 * std::log(ad(i, i));
  EXPECT_NEAR(log_det(a), want, 1e-6 * std::abs(want));
}

TEST(Mle, LogLikelihoodMatchesDenseEvaluation) {
  const int n = 128;
  auto prob = test_problem(n, 23);
  Rng rng(9);
  auto z = prob.synthetic_observations(rng);

  CholeskyConfig cfg;
  cfg.acc = {1e-9, 1 << 30};
  cfg.band_size = 0;  // auto
  cfg.nthreads = 2;
  auto eval = evaluate_mle(prob, z, 32, cfg);

  // Dense reference of Eq. (1).
  Matrix ad = prob.block(0, 0, n, n);
  dense::potrf(dense::Uplo::Lower, ad.view());
  double logdet = 0;
  for (int i = 0; i < n; ++i) logdet += 2.0 * std::log(ad(i, i));
  std::vector<double> y = z;
  dense::MatrixView rhs(y.data(), n, 1, n);
  dense::trsm(dense::Side::Left, dense::Uplo::Lower, Trans::N,
              dense::Diag::NonUnit, 1.0, ad.view(), rhs);
  double quad = 0;
  for (double v : y) quad += v * v;
  const double want =
      -0.5 * (n * std::log(2.0 * std::numbers::pi) + logdet + quad);

  EXPECT_NEAR(eval.log_likelihood, want,
              1e-5 * std::abs(want) + 1e-6);
  EXPECT_NEAR(eval.logdet, logdet, 1e-5 * std::abs(logdet));
  EXPECT_NEAR(eval.quadratic, quad, 1e-4 * quad);
}

TEST(Mle, RejectsWrongDimension) {
  auto prob = test_problem(64, 29);
  std::vector<double> z(32, 1.0);
  CholeskyConfig cfg;
  EXPECT_THROW(evaluate_mle(prob, z, 16, cfg), ptlr::Error);
}

// ------------------------------------------------- MLE optimization ----

TEST(MleFit, RecoversCorrelationLength) {
  // Simulate Z from a known theta2, then let the θ₂ search find it back
  // through the full TLR pipeline.
  const int n = 512;
  const double theta2_true = 0.15;
  auto truth = stars::make_st3d_matern(n, 1.0, theta2_true, 0.5, 42, 1e-2);
  Matrix l = truth.block(0, 0, n, n);
  dense::potrf(dense::Uplo::Lower, l.view());
  Rng rng(5);
  std::vector<double> z(n, 0.0);
  {
    std::vector<double> w(n);
    for (auto& v : w) v = rng.gaussian();
    for (int i = 0; i < n; ++i) {
      double s = 0.0;
      for (int j = 0; j <= i; ++j)
        s += l(i, j) * w[static_cast<std::size_t>(j)];
      z[static_cast<std::size_t>(i)] = s;
    }
  }
  MleOptimizerConfig cfg;
  cfg.tile_size = 64;
  cfg.cholesky.acc = {1e-5, 1 << 30};
  cfg.cholesky.band_size = 0;
  cfg.cholesky.nthreads = 2;
  cfg.max_evals = 14;
  auto fit = fit_theta2(z, cfg);
  EXPECT_GT(fit.evaluations, 3);
  EXPECT_LE(fit.evaluations, 14);
  // The likelihood surface is flat near the optimum at this size; accept a
  // 2x bracket around the truth.
  EXPECT_GT(fit.theta2, theta2_true / 2);
  EXPECT_LT(fit.theta2, theta2_true * 2);
  // Every visited point has likelihood <= the reported maximum.
  for (const auto& [t2, ll] : fit.path) EXPECT_LE(ll, fit.log_likelihood);
}

TEST(MleFit, RejectsInvalidBracket) {
  std::vector<double> z(64, 0.1);
  MleOptimizerConfig cfg;
  cfg.lo = 0.5;
  cfg.hi = 0.1;
  EXPECT_THROW(fit_theta2(z, cfg), ptlr::Error);
}

// The search alone, on analytic objectives of u = log θ over the default
// bracket [0.02, 0.64] at rel_tol 0.05.
namespace {

// Evaluations a golden-section search takes to shrink [lo, hi] to rel_tol
// in log θ: two interior points, then one per 0.618× step.
int golden_section_evals(const MleOptimizerConfig& cfg) {
  const double steps = std::log(cfg.rel_tol / std::log(cfg.hi / cfg.lo)) /
                       std::log(0.6180339887498949);
  return 2 + static_cast<int>(std::ceil(steps));
}

// Runs maximize_theta2 on f(log θ) and checks what every run must hold;
// with a maximizer u_star it also checks that the search lands within
// rel_tol of it.
MleFit check_search(const std::function<double(double)>& f,
                    const MleOptimizerConfig& cfg,
                    std::optional<double> u_star) {
  std::vector<std::pair<double, double>> calls;
  const MleFit fit = maximize_theta2(
      [&](double theta) {
        calls.emplace_back(theta, f(std::log(theta)));
        return calls.back().second;
      },
      cfg);
  EXPECT_EQ(fit.evaluations, static_cast<int>(calls.size()));
  EXPECT_LE(fit.evaluations, cfg.max_evals);
  EXPECT_LE(fit.evaluations, golden_section_evals(cfg));
  EXPECT_EQ(fit.path, calls);
  bool evaluated = false;
  for (const auto& [theta, ll] : calls) {
    EXPECT_GE(theta, cfg.lo);
    EXPECT_LE(theta, cfg.hi);
    EXPECT_LE(ll, fit.log_likelihood);
    evaluated |= std::bit_cast<std::uint64_t>(theta) ==
                     std::bit_cast<std::uint64_t>(fit.theta2) &&
                 ll == fit.log_likelihood;
  }
  EXPECT_TRUE(evaluated) << "theta2 " << fit.theta2 << " was not evaluated";
  if (u_star) {
    EXPECT_NEAR(std::log(fit.theta2), *u_star, cfg.rel_tol);
  }
  return fit;
}

}  // namespace

TEST(MaximizeTheta2, SmoothInteriorMaximum) {
  const double u0 = std::log(0.1);
  const auto fit = check_search(
      [u0](double u) { return -(u - u0) * (u - u0); }, {}, u0);
  // Once three points are known, the parabola through them is f itself.
  EXPECT_LE(fit.evaluations, 6);
}

TEST(MaximizeTheta2, AsymmetricMaximum) {
  // -e^(u-u0) + u peaks at u0: exponentially steep above, linear below.
  for (const double t0 : {0.03, 0.1, 0.4}) {
    SCOPED_TRACE(t0);
    const double u0 = std::log(t0);
    check_search([u0](double u) { return -std::exp(u - u0) + u; }, {}, u0);
  }
}

TEST(MaximizeTheta2, MaximumAtEitherEnd) {
  const MleOptimizerConfig cfg;
  for (const double t0 : {cfg.lo, cfg.hi}) {
    SCOPED_TRACE(t0);
    const double u0 = std::log(t0);
    check_search([u0](double u) { return -(u - u0) * (u - u0); }, cfg, u0);
    // Linear on the bracket, so no parabola has a vertex inside it.
    check_search([u0](double u) { return -std::abs(u - u0); }, cfg, u0);
  }
}

TEST(MaximizeTheta2, ConstantObjective) {
  // No parabola has a vertex, so every step is a golden-section step:
  // the 11 evaluations of a golden-section search of this bracket.
  const auto fit = check_search([](double) { return -3.5; }, {}, std::nullopt);
  EXPECT_EQ(fit.evaluations, 11);
  EXPECT_EQ(golden_section_evals({}), 11);
}

TEST(MaximizeTheta2, StopsAtMaxEvals) {
  MleOptimizerConfig cfg;
  cfg.max_evals = 3;
  const double u0 = std::log(0.05);
  const auto fit = check_search(
      [u0](double u) { return -std::exp(u - u0) + u; }, cfg, std::nullopt);
  EXPECT_EQ(fit.evaluations, 3);
}

TEST(MaximizeTheta2, RejectsInvalidStoppingRule) {
  const auto f = [](double) { return 0.0; };
  MleOptimizerConfig cfg;
  cfg.max_evals = 0;
  EXPECT_THROW(maximize_theta2(f, cfg), ptlr::Error);
  cfg = {};
  cfg.rel_tol = 0.0;
  EXPECT_THROW(maximize_theta2(f, cfg), ptlr::Error);
}

// ------------------------------------------------ matvec and CG solve ----

#include "core/matvec.hpp"

TEST(Matvec, MatchesDenseProduct) {
  auto prob = test_problem(160, 61);
  auto a = tlr::TlrMatrix::from_problem(prob, 40, {1e-8, 1 << 30}, 1);
  Rng rng(1);
  std::vector<double> x(160);
  for (auto& v : x) v = rng.gaussian();
  auto y = matvec(a, x);
  Matrix ad = prob.block(0, 0, 160, 160);
  std::vector<double> want(160, 0.0);
  dense::gemv(Trans::N, 1.0, ad.view(), x.data(), 0.0, want.data());
  double diff = 0, norm = 0;
  for (int i = 0; i < 160; ++i) {
    diff += (y[i] - want[i]) * (y[i] - want[i]);
    norm += want[i] * want[i];
  }
  EXPECT_LT(std::sqrt(diff / norm), 1e-6);
}

TEST(Matvec, WorksWithStaleUpperDiagonalTriangle) {
  auto prob = test_problem(96, 63);
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-8, 1 << 30}, 1);
  // Corrupt strictly-upper halves of the diagonal tiles: matvec must not
  // look at them.
  for (int i = 0; i < a.nt(); ++i) {
    auto& d = a.at(i, i).dense_data();
    for (int c = 1; c < d.cols(); ++c)
      for (int r = 0; r < c; ++r) d(r, c) = 1e9;
  }
  Rng rng(2);
  std::vector<double> x(96);
  for (auto& v : x) v = rng.gaussian();
  auto y = matvec(a, x);
  for (double v : y) EXPECT_LT(std::abs(v), 1e6);
}

TEST(CgSolve, AgreesWithDirectSolve) {
  auto prob = test_problem(160, 67);
  compress::Accuracy acc{1e-8, 1 << 30};
  auto a = tlr::TlrMatrix::from_problem(prob, 40, acc, 1);
  Rng rng(3);
  std::vector<double> b(160);
  for (auto& v : b) v = rng.gaussian();
  auto cg = cg_solve(a, b, 1e-10, 500);
  ASSERT_TRUE(cg.converged);

  auto chol = a;  // factor a copy directly
  CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = 2;
  cfg.nthreads = 2;
  factorize(chol, &prob, cfg);
  auto direct = solve(chol, b);
  double diff = 0, norm = 0;
  for (int i = 0; i < 160; ++i) {
    diff += (cg.x[i] - direct[i]) * (cg.x[i] - direct[i]);
    norm += direct[i] * direct[i];
  }
  EXPECT_LT(std::sqrt(diff / norm), 1e-4);
}

TEST(CgSolve, PreconditionerReducesIterations) {
  auto prob = test_problem(192, 71);
  auto a = tlr::TlrMatrix::from_problem(prob, 48, {1e-8, 1 << 30}, 1);
  Rng rng(4);
  std::vector<double> b(192);
  for (auto& v : b) v = rng.gaussian();
  auto plain = cg_solve(a, b, 1e-8, 500, false);
  auto jacobi = cg_solve(a, b, 1e-8, 500, true);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(jacobi.converged);
  EXPECT_LE(jacobi.iterations, plain.iterations + 2);
}

TEST(CgSolve, ZeroRhsConvergesImmediately) {
  auto prob = test_problem(64, 73);
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-6, 1 << 30}, 1);
  auto cg = cg_solve(a, std::vector<double>(64, 0.0));
  EXPECT_TRUE(cg.converged);
  EXPECT_EQ(cg.iterations, 0);
}

// ----------------------------------------------- multi-RHS solves ----

TEST(SolveMultiRhs, MatchesSingleRhsColumnwise) {
  auto prob = test_problem(128, 77);
  compress::Accuracy acc{1e-8, 1 << 30};
  auto a = tlr::TlrMatrix::from_problem(prob, 32, acc, 1);
  CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = 2;
  cfg.nthreads = 2;
  factorize(a, &prob, cfg);

  Rng rng(8);
  const int nrhs = 3;
  Matrix z(128, nrhs);
  dense::fill_gaussian(z.view(), rng);
  Matrix zm = z;
  solve_inplace(a, zm.view());
  for (int c = 0; c < nrhs; ++c) {
    std::vector<double> col(128);
    for (int i = 0; i < 128; ++i) col[static_cast<std::size_t>(i)] = z(i, c);
    auto want = solve(a, col);
    for (int i = 0; i < 128; ++i)
      EXPECT_NEAR(zm(i, c), want[static_cast<std::size_t>(i)], 1e-10)
          << "rhs " << c;
  }
}

// -------------------------------- adaptive on-demand densification ----

TEST(AdaptiveDensify, HighGrowthTilesRollBackToDense) {
  // Force the policy with a tiny ratio: every LR GEMM output densifies.
  auto prob = test_problem(128, 79);
  compress::Accuracy acc{1e-6, 1 << 30};
  acc.densify_ratio = 1e-3;
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-6, 1 << 30}, 1);
  CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = 1;
  cfg.nthreads = 2;
  factorize(a, &prob, cfg);
  int densified = 0;
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j < i; ++j)
      if (a.at(i, j).is_dense()) ++densified;
  EXPECT_GT(densified, 0);
  EXPECT_LT(backward_error(prob, a), 1e-6 * 128);
}

TEST(AdaptiveDensify, DisabledPolicyKeepsTilesLowRank) {
  auto prob = test_problem(128, 79);
  compress::Accuracy acc{1e-6, 1 << 30};  // densify_ratio = 0 (off)
  auto a = tlr::TlrMatrix::from_problem(prob, 32, acc, 1);
  CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = 1;
  cfg.nthreads = 2;
  factorize(a, &prob, cfg);
  int lowrank = 0;
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j < i; ++j)
      if (a.at(i, j).is_lowrank()) ++lowrank;
  EXPECT_GT(lowrank, 0);
}

// ---------------------------------------------- memory capacity model ----

#include "core/memory_model.hpp"

TEST(MemoryModel, StaticPolicyCostsMoreThanExact) {
  auto map = hard_map(16, 128);
  rt::BandDistribution dist(2, 2, 1);
  const auto stat = per_process_footprint(map, dist,
                                          AllocPolicy::kStaticMaxrank);
  const auto exact = per_process_footprint(map, dist,
                                           AllocPolicy::kExactRank);
  EXPECT_GT(stat.max_bytes, exact.max_bytes);
  EXPECT_NEAR(stat.total_bytes,
              // nt diag tiles dense + off-diag at 2*b*maxrank.
              (16.0 * 128 * 128 + 120.0 * 2 * 128 * 64) * 8, 1.0);
}

TEST(MemoryModel, FootprintSumsOverProcesses) {
  auto map = easy_map(8, 64);
  rt::TwoDBlockCyclic dist(2, 2);
  const auto rep = per_process_footprint(map, dist,
                                         AllocPolicy::kExactRank);
  EXPECT_GE(rep.max_bytes, rep.min_bytes);
  EXPECT_GE(rep.total_bytes, rep.max_bytes);
  EXPECT_GE(rep.argmax_proc, 0);
  EXPECT_LT(rep.argmax_proc, 4);
}

TEST(MemoryModel, ExactRankFitsLargerProblemsThanStatic) {
  // The Section VIII-E capacity story: under the same per-node budget the
  // exact-rank allocation admits a larger matrix than the static one.
  RankDecayModel decay{96, 4, 0.9};
  const double cap = 64.0 * 1024 * 1024;  // 64 MB per virtual node
  const int nt_static = max_nt_within_capacity(
      decay, 128, 2, 16, cap, AllocPolicy::kStaticMaxrank);
  const int nt_exact = max_nt_within_capacity(
      decay, 128, 2, 16, cap, AllocPolicy::kExactRank);
  EXPECT_GT(nt_static, 0);
  EXPECT_GT(nt_exact, nt_static);
}

// ------------------------------------------ heterogeneous simulation ----

TEST(SimulateCholesky, AcceleratorsShortenTheDenseCriticalPath) {
  auto map = hard_map(24, 256);
  map.set_band(tune_band_size(map).band_size);
  VirtualClusterConfig cpu, gpu;
  cpu.rates = gpu.rates = {1e9, 3.3e8};
  cpu.nodes = gpu.nodes = 8;
  cpu.cores_per_node = gpu.cores_per_node = 8;
  gpu.accel_per_node = 2;
  gpu.accel_speedup = 8.0;
  const double t_cpu = simulate_cholesky(map, cpu).sim.makespan;
  const double t_gpu = simulate_cholesky(map, gpu).sim.makespan;
  EXPECT_LT(t_gpu, t_cpu);
}

TEST(SimulateCholesky, BatchedTlrAccelerationBeatsDenseOnlyOffload) {
  auto map = hard_map(24, 256);
  map.set_band(tune_band_size(map).band_size);
  VirtualClusterConfig dense_only, all;
  dense_only.rates = all.rates = {1e9, 3.3e8};
  dense_only.nodes = all.nodes = 8;
  dense_only.cores_per_node = all.cores_per_node = 8;
  dense_only.accel_per_node = all.accel_per_node = 2;
  all.accel_all_kernels = true;
  const double t_dense = simulate_cholesky(map, dense_only).sim.makespan;
  const double t_all = simulate_cholesky(map, all).sim.makespan;
  EXPECT_LT(t_all, t_dense);
}

// --------------------------------------- distributed-memory execution ----

#include "core/dist_cholesky.hpp"

TEST(DistributedCholesky, MatchesSharedMemoryFactorizationTileByTile) {
  auto prob = test_problem(224, 91);
  compress::Accuracy acc{1e-6, 1 << 30};
  auto shared_mem = tlr::TlrMatrix::from_problem(prob, 32, acc, 2);
  auto distributed = tlr::TlrMatrix::from_problem(prob, 32, acc, 2);

  // Shared-memory reference: single thread, same kernels.
  CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = 2;
  cfg.nthreads = 1;
  factorize(shared_mem, &prob, cfg);

  rt::BandDistribution dist(2, 2, 2);
  auto res = core::distributed_factorize(distributed, dist, acc);
  EXPECT_GT(res.comm.messages, 0);
  EXPECT_GT(res.comm.bytes, 0);

  for (int i = 0; i < shared_mem.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      EXPECT_EQ(distributed.at(i, j).is_dense(),
                shared_mem.at(i, j).is_dense())
          << i << "," << j;
      // Identical kernel sequences per tile: bitwise-level agreement.
      EXPECT_LT(dense::frob_diff(distributed.at(i, j).to_dense().view(),
                                 shared_mem.at(i, j).to_dense().view()),
                1e-12)
          << i << "," << j;
    }
}

TEST(DistributedCholesky, BackwardErrorHoldsOnLargerGrid) {
  auto prob = test_problem(256, 93);
  compress::Accuracy acc{1e-5, 1 << 30};
  auto a = tlr::TlrMatrix::from_problem(prob, 32, acc, 1);
  rt::TwoDBlockCyclic dist(2, 3);  // 6 ranks
  core::distributed_factorize(a, dist, acc);
  EXPECT_LT(backward_error(prob, a), 1e-5 * 256);
}

TEST(DistributedCholesky, SingleRankNeedsNoMessages) {
  auto prob = test_problem(96, 95);
  compress::Accuracy acc{1e-5, 1 << 30};
  auto a = tlr::TlrMatrix::from_problem(prob, 32, acc, 1);
  rt::TwoDBlockCyclic dist(1, 1);
  auto res = core::distributed_factorize(a, dist, acc);
  EXPECT_EQ(res.comm.messages, 0);
  EXPECT_LT(backward_error(prob, a), 1e-5 * 96);
}

TEST(DistributedCholesky, NonSpdInputAbortsAllRanksCleanly) {
  auto prob = test_problem(96, 97);
  const compress::Accuracy acc{1e-6, 1 << 30};
  const auto broken = [&](int k) {
    auto a = tlr::TlrMatrix::from_problem(prob, 32, acc, 1);
    auto& d = a.at(k, k).dense_data();
    for (int r = 0; r < d.rows(); ++r) d(r, r) = -1.0;
    return a;
  };
  rt::TwoDBlockCyclic dist(2, 2);
  // Break SPD-ness of a late diagonal tile.
  auto a = broken(2);
  EXPECT_THROW(core::distributed_factorize(a, dist, acc), ptlr::Error);

  // Tile (1, 1) belongs to rank 3. The caller must get rank 3's own error,
  // the one the shared-memory factorization throws, not a peer's report of
  // the connection that rank 3's abort closed.
  ASSERT_EQ(dist.owner(1, 1), 3);
  CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = 1;
  cfg.nthreads = 1;
  auto shared = broken(1);
  std::optional<long long> want;
  try {
    factorize(shared, nullptr, cfg);
  } catch (const NumericalError& e) {
    want = e.info();
  }
  ASSERT_TRUE(want.has_value()) << "the shared-memory factorization passed";
  auto b = broken(1);
  try {
    core::distributed_factorize(b, dist, acc);
    ADD_FAILURE() << "the distributed factorization passed";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.info(), *want) << e.what();
  } catch (const Error& e) {
    ADD_FAILURE() << "not the failing rank's error: " << e.what();
  }
}

// --------------------------------- broadcast trees & placement heuristic ----

#include <thread>

#include "core/bcast_tree.hpp"
#include "core/placement.hpp"
#include "net/loopback.hpp"
#include "resilience/watchdog.hpp"
#include "tlr/io.hpp"

namespace {

using rt::dist::make_tag;

}  // namespace

// Walk the tree edges from the origin and count arrivals: every
// destination other than the origin must be delivered to exactly once, by
// exactly one parent, with the origin transmitting at most one copy —
// under any tag (the tags rotate the tree) and any destination shape.
TEST(BcastTree, EveryDestinationIsReachedExactlyOnce) {
  const std::set<int> shapes[] = {
      {5},
      {0, 1, 2, 3, 4, 5, 6, 7},
      {1, 3, 4, 9, 12},
      {2, 11},
      {0, 6, 7, 8, 13, 21, 22, 23, 24, 40},
  };
  const std::uint64_t tags[] = {make_tag(0, 1, 2, 3), make_tag(1, 7, 5, 1),
                                make_tag(1, 19, 11, 4), make_tag(0, 0, 0, 0)};
  for (const auto& dests : shapes) {
    for (const std::uint64_t tag : tags) {
      for (const int origin : {0, 5, 17}) {
        std::map<int, int> arrivals;
        int origin_sends = 0;
        std::vector<int> frontier{origin};
        int hops = 0;
        while (!frontier.empty()) {
          std::vector<int> next;
          for (const int self : frontier)
            for (const int child :
                 core::bcast::children(tag, origin, dests, self)) {
              if (self == origin) ++origin_sends;
              ++arrivals[child];
              next.push_back(child);
            }
          if (!next.empty()) ++hops;
          frontier = std::move(next);
        }
        std::set<int> expected = dests;
        expected.erase(origin);
        EXPECT_LE(origin_sends, 1) << "tag=" << tag << " origin=" << origin;
        EXPECT_EQ(arrivals.size(), expected.size());
        for (const int d : expected)
          EXPECT_EQ(arrivals[d], 1)
              << "dest " << d << " tag=" << tag << " origin=" << origin;
        EXPECT_LE(hops, core::bcast::depth(expected.size()));
      }
    }
  }
}

TEST(BcastTree, DepthIsLogarithmic) {
  EXPECT_EQ(core::bcast::depth(0), 0);
  EXPECT_EQ(core::bcast::depth(1), 1);
  EXPECT_EQ(core::bcast::depth(2), 2);
  EXPECT_EQ(core::bcast::depth(8), 4);   // 1 + ceil(log2 8)
  EXPECT_EQ(core::bcast::depth(9), 5);
  EXPECT_EQ(core::bcast::depth(1024), 11);
}

TEST(Placement, NamesAndMaterialization) {
  EXPECT_STREQ(core::placement_name(core::PlacementKind::kOneD), "1d");
  EXPECT_STREQ(core::placement_name(core::PlacementKind::kTwoD), "2d");
  EXPECT_STREQ(core::placement_name(core::PlacementKind::kHybridBand),
               "band");
  for (const auto kind :
       {core::PlacementKind::kOneD, core::PlacementKind::kTwoD,
        core::PlacementKind::kHybridBand}) {
    const auto dist = core::make_placement(kind, 6, 2);
    ASSERT_NE(dist, nullptr);
    EXPECT_EQ(dist->nproc(), 6);
    for (int i = 0; i < 10; ++i)
      for (int j = 0; j <= i; ++j) {
        EXPECT_GE(dist->owner(i, j), 0);
        EXPECT_LT(dist->owner(i, j), 6);
      }
  }
}

TEST(Placement, ChoiceIsTheArgminOfTheModelCosts) {
  core::PlacementProblem prob;
  prob.nt = 12;
  prob.block = 32;
  prob.band = 2;
  prob.avg_offband_rank = 6.0;
  prob.nranks = 4;
  const core::MeshParams mesh;
  const auto choice = core::choose_placement(prob, mesh);
  double best = 1e300;
  for (const double c : choice.cost_seconds) {
    EXPECT_GT(c, 0.0);
    best = std::min(best, c);
  }
  EXPECT_EQ(choice.cost_seconds[static_cast<std::size_t>(choice.kind)],
            best);
  // The per-candidate costs are exactly the published model.
  for (const auto kind :
       {core::PlacementKind::kOneD, core::PlacementKind::kTwoD,
        core::PlacementKind::kHybridBand})
    EXPECT_DOUBLE_EQ(choice.cost_seconds[static_cast<std::size_t>(kind)],
                     core::placement_comm_cost(prob, mesh, kind));
  // Pipelined trees never cost more than origin-serialized unicast.
  core::PlacementProblem flat = prob;
  flat.tree = false;
  for (const auto kind :
       {core::PlacementKind::kOneD, core::PlacementKind::kTwoD,
        core::PlacementKind::kHybridBand})
    EXPECT_LE(core::placement_comm_cost(prob, mesh, kind),
              core::placement_comm_cost(flat, mesh, kind));
}

TEST(Placement, SingleRankCostsNothingAndKeepsBand) {
  core::PlacementProblem prob;
  prob.nt = 8;
  prob.block = 32;
  prob.nranks = 1;
  const auto choice = core::choose_placement(prob, core::MeshParams{});
  for (const double c : choice.cost_seconds) EXPECT_EQ(c, 0.0);
  EXPECT_EQ(choice.kind, core::PlacementKind::kHybridBand);  // tie → band
}

// Four ranks negotiate over a loopback mesh: the probe measures the
// loopback α/β, rank 0 decides, and every rank must come back with the
// identical choice and parameters.
TEST(Placement, NegotiationAgreesAcrossRanks) {
  constexpr int kRanks = 4;
  resil::WatchdogConfig watchdog;
  watchdog.deadline_ms = 20000;
  net::LoopbackMesh mesh(kRanks, rt::PerturbConfig{}, resil::FaultConfig{},
                         watchdog);
  core::PlacementProblem prob;
  prob.nt = 12;
  prob.block = 32;
  prob.band = 2;
  prob.nranks = kRanks;

  std::vector<core::PlacementChoice> choices(kRanks);
  std::vector<std::thread> ranks;
  for (int r = 0; r < kRanks; ++r)
    ranks.emplace_back([&, r] {
      choices[static_cast<std::size_t>(r)] =
          core::negotiate_placement(mesh[r], prob);
    });
  for (auto& th : ranks) th.join();

  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(choices[0].kind, choices[static_cast<std::size_t>(r)].kind);
    EXPECT_DOUBLE_EQ(
        choices[0].params.alpha_seconds,
        choices[static_cast<std::size_t>(r)].params.alpha_seconds);
    EXPECT_DOUBLE_EQ(
        choices[0].params.beta_seconds_per_byte,
        choices[static_cast<std::size_t>(r)].params.beta_seconds_per_byte);
  }
  EXPECT_GT(choices[0].params.alpha_seconds, 0.0);
  EXPECT_GT(choices[0].params.beta_seconds_per_byte, 0.0);
}

// The broadcast trees on the in-process mesh (4 ranks, n = 512, b = 32,
// band placement of width 2): the origins' egress stays well under the
// unicast equivalent (every payload byte sent once per destination),
// forwards appear, the message count is the simulator's exactly (one
// message per producer tile and consumer process), and the factor is
// bitwise the shared-memory graph's.
TEST(DistributedCholesky, TreeBroadcastCutsRootEgressBitwise) {
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DExp, 512, 42, 1e-2);
  const compress::Accuracy acc{1e-6, 1 << 30};
  const rt::BandDistribution dist(2, 2, 2);

  auto a = tlr::TlrMatrix::from_problem(prob, 32, acc, 1);
  auto shared = a;
  const RankMap map = RankMap::from_matrix(a);
  const auto res = core::distributed_factorize(a, dist, acc);

  GraphOptions gopt;
  gopt.acc = acc;
  rt::TaskGraph g = build_cholesky_graph(shared, gopt);
  rt::execute(g, 2);
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j)
      EXPECT_EQ(tlr::tile_to_bytes(a.at(i, j)),
                tlr::tile_to_bytes(shared.at(i, j)))
          << "tile (" << i << "," << j << ")";

  long long egress = 0, payload = 0, forwards = 0;
  ASSERT_EQ(res.rank_comm.size(), 4u);
  for (const auto& cs : res.rank_comm) {
    egress += cs.root_egress_bytes;
    payload += cs.bytes;
    forwards += cs.forwards;
  }
  EXPECT_EQ(payload, res.comm.bytes);
  EXPECT_LT(static_cast<double>(egress), 0.75 * static_cast<double>(payload))
      << "egress " << egress << " B vs unicast " << payload << " B";
  EXPECT_GT(forwards, 0);

  VirtualClusterConfig cfg;
  cfg.nodes = 4;
  cfg.cores_per_node = 1;
  cfg.rates = {1e9, 3.3e8};
  cfg.recursive_all = false;
  cfg.recursive_potrf = false;
  cfg.band_dist_width = 2;
  EXPECT_EQ(res.comm.messages, simulate_cholesky(map, cfg).sim.messages);
}

// ----------------------------------------------------------- kriging ----

#include "core/kriging.hpp"

TEST(Kriging, MatchesDenseKriging) {
  // Observations + targets from the same field; TLR predictor must match
  // the exact dense kriging predictor.
  Rng rng(7);
  auto obs_pts = stars::grid3d(160, rng);
  auto tgt_pts = stars::grid3d(24, rng);
  auto kernel = std::make_shared<stars::Matern>(1.0, 0.4, 0.5);
  stars::CovarianceProblem obs_prob(obs_pts, kernel, 1e-2);
  auto z = obs_prob.synthetic_observations(rng);

  compress::Accuracy acc{1e-8, 1 << 30};
  auto sigma = tlr::TlrMatrix::from_problem(obs_prob, 40, acc, 1);
  CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = 2;
  cfg.nthreads = 2;
  factorize(sigma, &obs_prob, cfg);
  stars::CrossCovariance cross_op(tgt_pts, obs_pts, kernel);
  auto cross = tlr::TlrGeneralMatrix::from_cross_covariance(cross_op, 40,
                                                            acc);
  auto mean = kriging_mean(sigma, cross, z);

  // Dense reference.
  Matrix sd = obs_prob.block(0, 0, 160, 160);
  dense::potrf(dense::Uplo::Lower, sd.view());
  std::vector<double> y = z;
  dense::MatrixView rhs(y.data(), 160, 1, 160);
  dense::trsm(dense::Side::Left, dense::Uplo::Lower, Trans::N,
              dense::Diag::NonUnit, 1.0, sd.view(), rhs);
  dense::trsm(dense::Side::Left, dense::Uplo::Lower, Trans::T,
              dense::Diag::NonUnit, 1.0, sd.view(), rhs);
  Matrix cd = cross_op.block(0, 0, 24, 160);
  std::vector<double> want(24, 0.0);
  dense::gemv(Trans::N, 1.0, cd.view(), y.data(), 0.0, want.data());

  for (int i = 0; i < 24; ++i)
    EXPECT_NEAR(mean[static_cast<std::size_t>(i)],
                want[static_cast<std::size_t>(i)], 1e-4);
}

TEST(Kriging, VarianceIsBetweenZeroAndPrior) {
  Rng rng(9);
  auto obs_pts = stars::grid3d(128, rng);
  auto tgt_pts = stars::grid3d(8, rng);
  auto kernel = std::make_shared<stars::Matern>(1.0, 0.4, 0.5);
  stars::CovarianceProblem obs_prob(obs_pts, kernel, 1e-2);
  compress::Accuracy acc{1e-8, 1 << 30};
  auto sigma = tlr::TlrMatrix::from_problem(obs_prob, 32, acc, 1);
  CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = 2;
  cfg.nthreads = 2;
  factorize(sigma, &obs_prob, cfg);
  stars::CrossCovariance cross_op(tgt_pts, obs_pts, kernel);
  auto cross = tlr::TlrGeneralMatrix::from_cross_covariance(cross_op, 32,
                                                            acc);
  auto var = kriging_variance(sigma, cross, 1.0, {0, 3, 7});
  for (double v : var) {
    EXPECT_GT(v, -1e-6);   // numerically non-negative
    EXPECT_LT(v, 1.0);     // conditioning reduces uncertainty
  }
}

// ---------------------------------------------------- edge coverage ----

TEST(BandTuner, UnevenTailTilesAreHandled) {
  auto prob = test_problem(300, 99);  // 300 = 9 tiles of 32 + tail of 12
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-5, 1 << 30}, 1);
  auto tuned = tune_band_size(RankMap::from_matrix(a));
  EXPECT_GE(tuned.band_size, 1);
  EXPECT_LT(tuned.band_size, a.nt());
  // Factorize with the tuned band to close the loop.
  CholeskyConfig cfg;
  cfg.acc = {1e-5, 1 << 30};
  cfg.band_size = tuned.band_size;
  cfg.nthreads = 2;
  factorize(a, &prob, cfg);
  EXPECT_LT(backward_error(prob, a), 1e-5 * 300);
}

TEST(Factorize, BandCoveringWholeMatrixIsDenseCholesky) {
  auto prob = test_problem(128, 101);
  auto a = tlr::TlrMatrix::from_problem(prob, 32, {1e-6, 1 << 30}, 1);
  CholeskyConfig cfg;
  cfg.acc = {1e-6, 1 << 30};
  cfg.band_size = a.nt();  // densify everything
  cfg.nthreads = 2;
  factorize(a, &prob, cfg);
  // Every tile dense and the factorization is exact (no compression error).
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j) EXPECT_TRUE(a.at(i, j).is_dense());
  EXPECT_LT(backward_error(prob, a), 1e-12);
}

TEST(Factorize, SingleTileMatrix) {
  auto prob = test_problem(48, 103);
  auto a = tlr::TlrMatrix::from_problem(prob, 64, {1e-6, 1 << 30}, 1);
  EXPECT_EQ(a.nt(), 1);
  CholeskyConfig cfg;
  cfg.acc = {1e-6, 1 << 30};
  cfg.band_size = 1;
  cfg.nthreads = 2;
  factorize(a, &prob, cfg);
  EXPECT_LT(backward_error(prob, a), 1e-12);
}

TEST(SimulateCholesky, TreeBroadcastChangesMakespanOnly) {
  auto map = hard_map(24, 256);
  map.set_band(3);
  VirtualClusterConfig flat, tree;
  flat.rates = tree.rates = {1e9, 3.3e8};
  flat.nodes = tree.nodes = 16;
  flat.comm.bandwidth = tree.comm.bandwidth = 2e8;  // slow network
  tree.comm.tree_broadcast = true;
  auto rf = simulate_cholesky(map, flat);
  auto rt_ = simulate_cholesky(map, tree);
  // Same graph, same message count; only arrival times differ.
  EXPECT_EQ(rf.sim.messages, rt_.sim.messages);
  EXPECT_NE(rf.sim.makespan, rt_.sim.makespan);
}
