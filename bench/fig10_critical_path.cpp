// Fig. 10 — how close the execution is to the critical path: time and flops
// of the full factorization (All_kernels) vs the factorization without any
// low-rank updates (No_TLR_GEMM = dense band + panel, i.e. the critical
// path at distance BAND_SIZE), across matrix sizes on a fixed cluster.
//
// The paper's 512-node runs are core-saturated (hundreds of tiles per
// core); the virtual cluster here is sized for the same regime, which is
// where the falling-time-ratio shape lives.
#include <iostream>

#include "bench_util.hpp"

using namespace ptlr;
using namespace ptlr::core;

int main() {
  const auto sc = bench::scale();
  bench::header("Fig. 10", "All_kernels vs No_TLR_GEMM (critical path)");

  auto prob = bench::st3d_exp(sc.n);
  auto real = tlr::TlrMatrix::from_problem(prob, sc.b, {sc.tol, 1 << 30}, 1);
  const auto decay = RankDecayModel::fit(real);
  const int nodes = 8;
  std::printf("%d virtual nodes x 16 cores (core-saturated, like the "
              "paper's 512-node runs);\nrank decay fitted from real "
              "compression\n\n", nodes);

  Table t({"NT (size)", "BAND_SIZE", "All time (s)", "NoTLR time (s)",
           "time ratio", "All Gflop", "NoTLR Gflop", "flop ratio"});
  for (int nt : {24, 32, 48, 64, 96, 128}) {
    auto map = RankMap::synthetic(nt, sc.b, decay, 1);
    const int band = tune_band_size(map).band_size;
    map.set_band(band);
    auto cfg = bench::paper_node_config(nodes);
    cfg.recursive_all = true;
    cfg.recursive_block = sc.b / 4;
    auto all = simulate_cholesky(map, cfg);
    cfg.no_tlr_gemm = true;
    auto cp = simulate_cholesky(map, cfg);
    t.row().cell(static_cast<long long>(nt))
        .cell(static_cast<long long>(band))
        .cell(all.sim.makespan, 4).cell(cp.sim.makespan, 4)
        .cell(cp.sim.makespan / all.sim.makespan, 3)
        .cell(all.stats.model_flops / 1e9, 4)
        .cell(cp.stats.model_flops / 1e9, 4)
        .cell(cp.stats.model_flops / all.stats.model_flops, 3);
  }
  t.print(std::cout);

  // Measured counterpart: critical path of a real shared-memory run,
  // weighted by recorded task durations instead of the cost model.
  {
    CholeskyConfig rcfg;
    rcfg.acc = {sc.tol, 1 << 30};
    rcfg.band_size = 0;
    rcfg.nthreads = sc.threads;
    obs::enable(true);  // factorize fills critical_path from the spans
    auto res = factorize(real, &prob, rcfg);
    obs::enable(false);
    std::printf("\nmeasured DAG (shared-memory, N = %d, %d threads):\n%s",
                sc.n, sc.threads, obs::to_ascii(res.critical_path).c_str());
  }

  std::printf("\nShape check vs paper: No_TLR_GEMM is a small fraction of "
              "the flops yet a\nlarge share of the time-to-solution (little "
              "parallelism near the diagonal),\nand the time ratio DROPS as "
              "the matrix grows — O(NT) band tiles against\nO(NT^2) "
              "off-band tiles (the paper sees the same from 0.8 down to "
              "~0.4).\n");
  return 0;
}
