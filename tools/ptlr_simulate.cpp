// ptlr_simulate — project a compressed matrix onto the virtual cluster:
// tune the band, simulate the BAND-DENSE-TLR Cholesky across node counts,
// optionally dump a Chrome trace of one configuration (obs spans, one pid
// per simulated process; tools/check_trace.py validates it).
//
//   ptlr_simulate --in sigma.ptlr [--nodes 64] [--cores 16]
//                 [--accel 0] [--accel-speedup 8]
//                 [--trace run.json] [--sweep 1]
#include <cstdio>
#include <iostream>

#include "args.hpp"
#include "common/table.hpp"
#include "core/cholesky.hpp"
#include "core/memory_model.hpp"
#include "core/placement.hpp"
#include "obs/trace.hpp"
#include "tlr/io.hpp"

using namespace ptlr;
using namespace ptlr::core;

int main(int argc, char** argv) {
  try {
    const tools::Args args(argc, argv, {"in", "cores", "accel",
                                        "accel-speedup", "nodes", "sweep",
                                        "trace"});
    auto m = tlr::load(args.str("in", "sigma.ptlr"));
    auto ranks = RankMap::from_matrix(m);
    if (m.band_size() == 1) {
      const int band = tune_band_size(ranks).band_size;
      ranks.set_band(band);
      std::printf("auto-tuned BAND_SIZE = %d\n", band);
    }

    VirtualClusterConfig cfg;
    cfg.cores_per_node = args.integer("cores", 16);
    cfg.accel_per_node = args.integer("accel", 0);
    cfg.accel_speedup = args.real("accel-speedup", 8.0);
    cfg.rates = {1e9, 3.3e8};
    cfg.recursive_all = true;
    cfg.recursive_block = m.tile_size() / 4;

    const int nodes = args.integer("nodes", 64);
    if (args.integer("sweep", 1) != 0) {
      // Score tile placements with the same (α, β) heuristic ptlr-dist's
      // --dist auto negotiates over the wire — here fed straight from the
      // virtual cluster's communication model.
      MeshParams mesh;
      mesh.alpha_seconds = cfg.comm.latency;
      mesh.beta_seconds_per_byte = 1.0 / cfg.comm.bandwidth;
      Table t({"nodes", "time (s)", "Gflop/s", "messages", "max mem/node",
               "placement"});
      for (int nn = 1; nn <= nodes; nn *= 4) {
        cfg.nodes = nn;
        auto res = simulate_cholesky(ranks, cfg);
        const auto [p, q] = rt::square_grid(nn);
        rt::BandDistribution dist(p, q, ranks.band_size());
        const auto mem = per_process_footprint(ranks, dist,
                                               AllocPolicy::kExactRank);
        PlacementProblem pp;
        pp.nt = ranks.nt();
        pp.block = ranks.tile_size();
        pp.band = ranks.band_size();
        pp.avg_offband_rank = ranks.avgrank();
        pp.nranks = nn;
        pp.tree = true;  // the real backend's default communication path
        const auto choice = choose_placement(pp, mesh);
        t.row().cell(static_cast<long long>(nn))
            .cell(res.sim.makespan, 4)
            .cell(res.stats.model_flops / res.sim.makespan / 1e9, 4)
            .cell(res.sim.messages)
            .cell(std::to_string(mem.max_bytes / 1e6) + " MB")
            .cell(placement_name(choice.kind));
      }
      t.print(std::cout);
    }

    if (args.has("trace")) {
      cfg.nodes = nodes;
      const std::string path = args.str("trace", "run.json");
      obs::enable(true);
      const auto res = simulate_cholesky(ranks, cfg);
      obs::enable(false);
      obs::write_chrome_trace(path);
      std::printf("trace for %d nodes written to %s (makespan %.3f s)\n",
                  cfg.nodes, path.c_str(), res.sim.makespan);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
