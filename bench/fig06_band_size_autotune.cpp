// Fig. 6 — impact of BAND_SIZE auto-tuning:
//   (a) time-to-solution vs forced BAND_SIZE, with the fluctuation box,
//   (b) total model flops vs BAND_SIZE,
//   (c) per-sub-diagonal flops in dense vs TLR format (+ maxrank),
//   (d) auto-tuning + matrix regeneration overhead vs the factorization,
//   (e) the outside-in scan that picks the band while compressing: its
//       exit sub-diagonal, its pick and the share of the off-diagonal
//       compression time it skips.
// Exits 1 when the scan's pick differs from the smallest W inside the box
// of the global F_min, i.e. when F(W) does not have the one minimum the
// scan relies on.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <string>

#include "bench_util.hpp"

using namespace ptlr;
using namespace ptlr::core;

int main() {
  const auto sc = bench::scale();
  bench::header("Fig. 6", "BAND_SIZE auto-tuning (Algorithm 1)");
  bool one_minimum = true;
  std::string overhead;  // (d)'s share of time-to-solution, per N
  double overhead_max = 0.0;

  for (int n : {sc.n / 2, sc.n}) {
    std::printf("\n--- st-3D-exp, N = %d, b = %d, accuracy %.0e ---\n", n,
                sc.b, sc.tol);
    auto prob = bench::st3d_exp(n);
    const compress::Accuracy acc{sc.tol, 1 << 30};
    auto base = tlr::TlrMatrix::from_problem(prob, sc.b, acc, 1);
    const auto ranks = RankMap::from_matrix(base);
    auto tuned = tune_band_size(ranks);

    // (a)+(b): sweep forced band sizes around the tuned one.
    const int wmax =
        std::min(base.nt() - 1, std::max(2 * tuned.band_size, 4));
    Table ab({"BAND_SIZE", "time (s)", "model Gflop", "in fluctuation box",
              "tuned"});
    const double fmin = *std::min_element(
        tuned.total_by_band.begin(),
        tuned.total_by_band.begin() + wmax);
    for (int w = 1; w <= wmax; ++w) {
      auto a = base;  // deep copy: each run factorizes fresh data
      CholeskyConfig cfg;
      cfg.acc = acc;
      cfg.band_size = w;
      cfg.nthreads = sc.threads;
      auto res = factorize(a, &prob, cfg);
      const double fw = tuned.total_by_band[static_cast<std::size_t>(w - 1)];
      ab.row().cell(static_cast<long long>(w)).cell(res.factor_seconds, 4)
          .cell(fw / 1e9, 4)
          .cell(std::string(fw <= fmin / 0.67 ? "yes" : "no"))
          .cell(std::string(w == tuned.band_size ? "<== Algorithm 1" : ""));
    }
    ab.print(std::cout);

    // (c): marginal dense vs TLR flops per sub-diagonal.
    std::printf("\n(c) per-sub-diagonal flops (marginal), maxrank "
                "annotations:\n");
    auto sub = base.subdiag_maxrank();
    Table c({"subdiag d", "dense Gflop", "TLR Gflop", "cheaper", "maxrank"});
    for (int d = 1; d < std::min<int>(base.nt(),
                                      static_cast<int>(
                                          tuned.dense_subdiag.size()));
         ++d) {
      const double fd = tuned.dense_subdiag[static_cast<std::size_t>(d)];
      const double ft = tuned.tlr_subdiag[static_cast<std::size_t>(d)];
      if (fd == 0 && ft == 0) break;
      c.row().cell(static_cast<long long>(d)).cell(fd / 1e9, 4)
          .cell(ft / 1e9, 4)
          .cell(std::string(fd < ft ? "dense" : "TLR"))
          .cell(static_cast<long long>(sub[static_cast<std::size_t>(d)]));
    }
    c.print(std::cout);

    // (d): tuning + regeneration overhead.
    {
      auto a = base;
      CholeskyConfig cfg;
      cfg.acc = acc;
      cfg.band_size = 0;  // auto
      cfg.nthreads = sc.threads;
      auto res = factorize(a, &prob, cfg);
      const double share =
          100.0 * (res.tune_seconds + res.regen_seconds) /
          (res.tune_seconds + res.regen_seconds + res.factor_seconds);
      std::printf("\n(d) tuned BAND_SIZE = %d: auto-tune %.4f s, band "
                  "regeneration %.4f s,\n    factorization %.3f s — "
                  "overhead = %.2f%% of time-to-solution\n",
                  res.band_size, res.tune_seconds, res.regen_seconds,
                  res.factor_seconds, share);
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.1f%% (N = %d)",
                    overhead.empty() ? "" : ", ", share, n);
      overhead += buf;
      overhead_max = std::max(overhead_max, share);
    }

    // (e): the outside-in scan of build_auto_band against the global rule,
    // and the one-thread generate + compress time of each sub-diagonal.
    {
      BandScan scan;
      (void)build_auto_band(prob, sc.b, acc, sc.threads, 0.67, &scan);
      const double fmin_all = *std::min_element(
          tuned.total_by_band.begin(), tuned.total_by_band.end());
      int global = 1;
      while (tuned.total_by_band[static_cast<std::size_t>(global - 1)] >
             fmin_all / 0.67)
        ++global;
      std::vector<double> subdiag_s(static_cast<std::size_t>(base.nt()),
                                    0.0);
      for (int i = 1; i < base.nt(); ++i)
        for (int j = 0; j < i; ++j) {
          WallTimer t;
          const auto blk = prob.block(base.row_offset(i), base.row_offset(j),
                                      base.tile_rows(i), base.tile_rows(j));
          (void)compress::compress(blk.view(), acc);
          subdiag_s[static_cast<std::size_t>(i - j)] += t.seconds();
        }
      const double all =
          std::accumulate(subdiag_s.begin() + 1, subdiag_s.end(), 0.0);
      // The scan stopped at W = band - 1 and compressed the sub-diagonals
      // from there outward (all of them when the band is 1).
      const int exit = scan.band_size - 1;
      const double skipped = std::accumulate(
          subdiag_s.begin() + 1, subdiag_s.begin() + std::max(exit, 1), 0.0);
      std::printf("\n(e) outside-in scan: priced F(W) for W = %d..%d, exit "
                  "sub-diagonal %d, pick %d (global rule %d);\n    it skips "
                  "%.1f%% of the off-diagonal compression time (%.4f of "
                  "%.4f s, one thread)\n",
                  scan.wmax, scan.wmax - static_cast<int>(scan.flops.size()) + 1,
                  exit, scan.band_size, global, 100.0 * skipped / all,
                  skipped, all);
      if (scan.band_size != global || scan.band_size != tuned.band_size) {
        std::printf("FAIL: the scan's pick %d differs from the global "
                    "rule's %d (tune_band_size: %d)\n",
                    scan.band_size, global, tuned.band_size);
        one_minimum = false;
      }
    }
  }
  // The paper calls (d)'s overhead negligible; below 5% it is here too.
  std::printf("\nShape check vs paper: both time and flops have a sweet spot"
              " in BAND_SIZE;\nAlgorithm 1's pick sits inside the "
              "[0.67, 1] fluctuation box near the optimum;\nnear-diagonal "
              "sub-diagonals are cheaper dense, far ones cheaper TLR; and\n"
              "(d) puts the tuning + regeneration overhead at %s of "
              "time-to-solution,\nwhich the paper calls negligible (Fig. 6d): "
              "%s.\n",
              overhead.c_str(),
              overhead_max < 5.0 ? "negligible here too"
                                 : "not yet negligible at this scale");
  return one_minimum ? 0 : 1;
}
