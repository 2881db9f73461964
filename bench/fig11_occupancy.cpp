// Fig. 11 — system usage: busy and idle time of each virtual process, the
// per-process occupancy, and the achieved rate relative to the dense peak
// (the paper reports >90% thread occupancy per process and ≈1/3 of the
// sustained Linpack rate, since TLR GEMM runs at ≈1/3 of dense GEMM).
#include <iostream>

#include "bench_util.hpp"

using namespace ptlr;
using namespace ptlr::core;

int main() {
  const auto sc = bench::scale();
  bench::header("Fig. 11", "busy/idle per process and achieved rate");

  auto prob = bench::st3d_exp(sc.n);
  auto real = tlr::TlrMatrix::from_problem(prob, sc.b, {sc.tol, 1 << 30}, 1);
  const auto decay = RankDecayModel::fit(real);
  const int nt = 64, nodes = 8;
  auto map = RankMap::synthetic(nt, sc.b, decay, 1);
  map.set_band(tune_band_size(map).band_size);
  auto cfg = bench::paper_node_config(nodes);
  cfg.recursive_all = true;
  cfg.recursive_block = sc.b / 4;
  obs::enable(true);  // one span per simulated task, for the breakdown
  auto res = simulate_cholesky(map, cfg);
  obs::enable(false);
  std::printf("NT = %d, %d virtual nodes x %d cores, BAND_SIZE = %d\n\n",
              nt, nodes, cfg.cores_per_node, map.band_size());

  Table t({"process", "busy (core-s)", "idle (core-s)", "occupancy"});
  double min_occ = 1.0, max_occ = 0.0, sum_occ = 0.0;
  for (int p = 0; p < nodes; ++p) {
    const double busy = res.sim.busy[static_cast<std::size_t>(p)];
    const double total = res.sim.makespan * cfg.cores_per_node;
    const double occ = busy / total;
    min_occ = std::min(min_occ, occ);
    max_occ = std::max(max_occ, occ);
    sum_occ += occ;
    t.row().cell(static_cast<long long>(p)).cell(busy, 4)
        .cell(total - busy, 4).cell(occ, 3);
  }
  t.print(std::cout);

  // Where the time goes, by kernel class (the "most flops come from TLR
  // GEMMs" statement).
  std::printf("\nper-kernel-class time breakdown:\n\n");
  double total_secs = 0.0;
  const auto breakdown = obs::kind_breakdown(obs::run_spans(res.sim.run));
  for (const auto& ks : breakdown) total_secs += ks.seconds;
  Table kb({"kernel", "tasks", "core-seconds", "share"});
  for (const auto& ks : breakdown) {
    kb.row().cell(std::string(obs::kernel_name(ks.kind))).cell(ks.count)
        .cell(ks.seconds, 4).cell(ks.seconds / total_secs, 3);
  }
  kb.print(std::cout);

  const double peak =
      static_cast<double>(nodes) * cfg.cores_per_node * cfg.rates.dense_rate;
  const double achieved = res.stats.model_flops / res.sim.makespan;
  std::printf("\noccupancy: min %.2f avg %.2f max %.2f  (inter-process "
              "imbalance %.1f%%)\n", min_occ, sum_occ / nodes, max_occ,
              100.0 * (max_occ - min_occ));
  std::printf("achieved %.2f Gflop/s of %.2f Gflop/s dense peak = %.2f "
              "(paper: about 1/3)\n", achieved / 1e9, peak / 1e9,
              achieved / peak);
  std::printf("\nShape check vs paper: high occupancy within each process "
              "with visible\ninter-process imbalance from the static "
              "2DBCDD and irregular ranks; the\nachieved rate sits near 1/3 "
              "of dense peak because most flops are TLR GEMMs\nrunning at "
              "1/3 of the dense rate (Fig. 2a).\n");
  return 0;
}
