// Ablation — runtime knobs on the virtual cluster, isolating each of the
// paper's optimizations (and its named future work) around the tuned
// baseline:
//   (a) recursive sub-block size (Section VII-D),
//   (b) hybrid band-distribution width (Section VII-C),
//   (c) densification policy: none vs tuned band vs tile-based cap
//       (Section IX future work),
//   (d) accelerator offload: dense-only vs batched TLR (Section IX),
//   (e) dynamic inter-node load balancing via work stealing (Section IX),
//   (f) per-node memory capacity: static vs exact-rank allocation
//       (Section VIII-E).
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "core/memory_model.hpp"

using namespace ptlr;
using namespace ptlr::core;

int main() {
  const auto sc = bench::scale();
  bench::header("Ablation", "runtime knobs (virtual cluster)");

  auto prob = bench::st3d_exp(sc.n);
  auto real = tlr::TlrMatrix::from_problem(prob, sc.b, {sc.tol, 1 << 30}, 1);
  const auto decay = RankDecayModel::fit(real);
  const int nt = 48, nodes = 16;
  auto base = RankMap::synthetic(nt, sc.b, decay, 1);
  const int band = tune_band_size(base).band_size;
  auto banded = base;
  banded.set_band(band);
  std::printf("NT = %d, %d virtual nodes, tuned BAND_SIZE = %d\n",
              nt, nodes, band);

  std::printf("\n(a) recursive sub-block size:\n\n");
  Table a({"recursive_block", "makespan (s)"});
  {
    auto cfg = bench::paper_node_config(nodes);
    cfg.recursive_all = false;
    cfg.recursive_potrf = false;
    a.row().cell(std::string("off")).cell(
        simulate_cholesky(banded, cfg).sim.makespan, 4);
  }
  for (int rb : {sc.b / 8, sc.b / 4, sc.b / 2}) {
    auto cfg = bench::paper_node_config(nodes);
    cfg.recursive_all = true;
    cfg.recursive_block = rb;
    a.row().cell(static_cast<long long>(rb)).cell(
        simulate_cholesky(banded, cfg).sim.makespan, 4);
  }
  a.print(std::cout);

  std::printf("\n(b) band-distribution width:\n\n");
  Table bt({"distribution", "makespan (s)", "remote msgs"});
  {
    auto cfg = bench::paper_node_config(nodes);
    cfg.band_distribution = false;
    auto r = simulate_cholesky(banded, cfg);
    bt.row().cell(std::string("plain 2DBCDD")).cell(r.sim.makespan, 4)
        .cell(r.sim.messages);
  }
  for (int w : {1, band / 2 > 0 ? band / 2 : 1, band}) {
    auto cfg = bench::paper_node_config(nodes);
    cfg.band_dist_width = w;
    auto r = simulate_cholesky(banded, cfg);
    bt.row().cell("band width " + std::to_string(w))
        .cell(r.sim.makespan, 4).cell(r.sim.messages);
  }
  bt.print(std::cout);

  std::printf("\n(c) densification policy:\n\n");
  Table c({"policy", "makespan (s)", "model Gflop"});
  {
    auto cfg = bench::paper_node_config(nodes);
    cfg.band_dist_width = 1;
    auto r = simulate_cholesky(base, cfg);  // pure TLR (band = diagonal)
    c.row().cell(std::string("none (pure TLR)")).cell(r.sim.makespan, 4)
        .cell(r.stats.model_flops / 1e9, 4);
  }
  {
    auto cfg = bench::paper_node_config(nodes);
    auto r = simulate_cholesky(banded, cfg);
    c.row().cell("band (tuned, W=" + std::to_string(band) + ")")
        .cell(r.sim.makespan, 4).cell(r.stats.model_flops / 1e9, 4);
  }
  {
    // Tile-based policy: densify any tile whose rank exceeds b/2, wherever
    // it sits. With a distance-monotone rank profile this is exactly the
    // smallest band covering all capped tiles (the generator's stray-dense
    // mechanism produces the same result when compressing for real).
    int cover = 1;
    for (int d = 1; d < nt; ++d)
      if (decay.rank_at(d) > sc.b / 2) cover = d + 1;
    auto cov_map = RankMap::synthetic(nt, sc.b, decay, cover);
    auto cfg = bench::paper_node_config(nodes);
    auto r = simulate_cholesky(cov_map, cfg);
    c.row().cell("tile cap k > b/2 (covering band " +
                 std::to_string(cover) + ")")
        .cell(r.sim.makespan, 4).cell(r.stats.model_flops / 1e9, 4);
  }
  c.print(std::cout);

  std::printf("\n(d) accelerators (Section IX future work):\n\n");
  Table d({"config", "makespan (s)"});
  {
    auto cfg = bench::paper_node_config(nodes);
    d.row().cell(std::string("CPU only")).cell(
        simulate_cholesky(banded, cfg).sim.makespan, 4);
    cfg.accel_per_node = 2;
    cfg.accel_speedup = 8.0;
    d.row().cell(std::string("+2 accel/node, dense kernels only")).cell(
        simulate_cholesky(banded, cfg).sim.makespan, 4);
    cfg.accel_all_kernels = true;
    d.row().cell(std::string("+2 accel/node, all kernels (batched TLR)"))
        .cell(simulate_cholesky(banded, cfg).sim.makespan, 4);
  }
  d.print(std::cout);
  std::printf("\n    Reading: offloading only the dense region-(1) kernels "
              "barely moves the\n    makespan at these rank ratios — the "
              "binding chain is the low-rank SYRK\n    accumulation onto "
              "the diagonal tiles, which stays on the CPU. Batched\n    "
              "GPU TLR kernels (the paper's refs [2], [19], [20]) attack "
              "exactly that.\n");

  std::printf("\n(e) dynamic load balancing (Section IX future work): idle "
              "nodes steal ready\n    tasks from loaded peers, paying the "
              "data shipping:\n\n");
  Table ws({"config", "makespan (s)", "min occupancy", "max occupancy"});
  for (const bool stealing : {false, true}) {
    auto cfg = bench::paper_node_config(nodes);
    cfg.work_stealing = stealing;
    auto r = simulate_cholesky(banded, cfg);
    double occ_min = 1.0, occ_max = 0.0;
    for (int p = 0; p < nodes; ++p) {
      const double o = r.sim.occupancy(p, cfg.cores_per_node);
      occ_min = std::min(occ_min, o);
      occ_max = std::max(occ_max, o);
    }
    ws.row().cell(std::string(stealing ? "work stealing" : "static owners"))
        .cell(r.sim.makespan, 4).cell(occ_min, 3).cell(occ_max, 3);
  }
  ws.print(std::cout);

  std::printf("\n(f) per-node memory capacity: largest NT under a 128 MB "
              "virtual budget\n    (the Section VIII-E limit that stopped "
              "Prev at N = 3.24M on 512 nodes):\n\n");
  Table e({"allocation policy", "largest NT", "largest N"});
  const double cap = 128.0 * 1024 * 1024;
  for (auto [name, policy] :
       {std::pair{"Prev: static maxrank", AllocPolicy::kStaticMaxrank},
        std::pair{"New: exact rank", AllocPolicy::kExactRank}}) {
    const int nt_max = max_nt_within_capacity(decay, sc.b, band, nodes,
                                              cap, policy);
    e.row().cell(std::string(name)).cell(static_cast<long long>(nt_max))
        .cell(static_cast<long long>(nt_max) * sc.b);
  }
  e.print(std::cout);
  return 0;
}
