// ptlr-dist: one rank process of a distributed TLR Cholesky over the
// socket mesh. Launch N of these with tools/ptlr-launch:
//
//   ptlr-launch --n 2 -- ./ptlr-dist --n 192 --b 32 --dist auto --band 2
//
// Every rank builds the same synthetic covariance problem (same seed),
// compresses its replica, and runs its slice of the task graph
// (core::distributed_factorize_rank) over net::SocketTransport; tiles move
// as real bytes on the wire. --dist auto (the default) measures the mesh's
// (α, β) by ping-ponging rank 1 and lets core::negotiate_placement pick
// band vs 2d vs 1d; band/2d/1d force a candidate (CI pins these).
// --verify 1 recomputes the shared-memory factorization of the same input
// (the one task graph on rt::execute, no transport; faults and chaos
// disabled) and checks that every tile this rank owns is bitwise
// identical.
//
// Observability: PTLR_TRACE=1 records the rank's task spans plus wire
// events; PTLR_TRACE_FILE=trace_rank{rank}.json (via ptlr-launch
// substitution) gives one trace per rank. A summary line per rank reports
// time, logical sends and wire-level frame counts.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "args.hpp"
#include "common/error.hpp"
#include "core/cholesky_graph.hpp"
#include "core/dist_cholesky.hpp"
#include "core/placement.hpp"
#include "net/transport.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "runtime/distribution.hpp"
#include "runtime/executor.hpp"
#include "stars/problem.hpp"
#include "tlr/io.hpp"
#include "tlr/tlr_matrix.hpp"

using namespace ptlr;

namespace {

core::PlacementKind parse_kind(const std::string& kind) {
  if (kind == "1d") return core::PlacementKind::kOneD;
  if (kind == "2d") return core::PlacementKind::kTwoD;
  if (kind == "band") return core::PlacementKind::kHybridBand;
  throw Error("--dist must be auto, band, 2d or 1d, got: " + kind);
}

/// Mean numerical rank of the off-band tiles — the payload-size input the
/// placement cost model wants.
double mean_offband_rank(const tlr::TlrMatrix& a, int band) {
  double sum = 0.0;
  long long count = 0;
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      if (i - j < band) continue;
      sum += static_cast<double>(a.at(i, j).rank());
      ++count;
    }
  return count > 0 ? sum / static_cast<double>(count) : 8.0;
}

}  // namespace

int main(int argc, char** argv) try {
  const tools::Args args(argc, argv,
                         {"n", "b", "tol", "dist", "band", "verify"});
  const int n = args.integer("n", 192);
  const int b = args.integer("b", 32);
  const double tol = args.real("tol", 1e-6);
  const std::string dist_kind = args.str("dist", "auto");
  const int band = args.integer("band", 2);
  const bool verify = args.integer("verify", 0) != 0;

  net::NetConfig cfg = net::NetConfig::from_env();
  const compress::Accuracy acc{tol, 1 << 30};

  // Rank-death recovery (PTLR_CKPT / PTLR_EPOCH, see docs/distributed.md):
  // a respawned rank announces its checkpointed frontier in its REJOIN so
  // survivors replay exactly the acked messages the dead process took with
  // it — nothing older.
  const auto rec = core::RankRecoveryOptions::from_env();
  if (cfg.epoch > 0 && rec.ckpt.enabled())
    cfg.rejoin_frontier =
        core::peek_checkpoint_frontier(rec.ckpt.path_of(cfg.rank));

  obs::enable_from_env();
  obs::set_metadata("tool", "ptlr-dist");
  obs::set_metadata("n", std::to_string(n));
  obs::set_metadata("b", std::to_string(b));
  obs::set_metadata("dist", dist_kind);
  obs::set_metadata("nranks", std::to_string(cfg.nranks));
  obs::set_metadata("rank", std::to_string(cfg.rank));

  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, n);
  tlr::TlrMatrix a = tlr::TlrMatrix::from_problem(prob, b, acc, 1);

  core::DistCholeskyResult res;
  net::PeerWireStats wire;
  std::unique_ptr<rt::Distribution> dist;
  std::string chosen = dist_kind;
  {
    net::SocketTransport transport(cfg);
    if (dist_kind == "auto") {
      // The probe tags live outside the factorization's replay window, so
      // a respawned rank could not re-negotiate consistently; force a
      // placement when rank-death recovery is in play.
      PTLR_CHECK(rec.epoch == 0 && rec.faults.rank_kill_probability == 0.0,
                 "--dist auto cannot be combined with rank-kill faults or "
                 "respawn (PTLR_EPOCH); force --dist band|2d|1d");
      core::PlacementProblem pp;
      pp.nt = a.nt();
      pp.block = b;
      pp.band = band;
      pp.avg_offband_rank = mean_offband_rank(a, band);
      pp.nranks = cfg.nranks;
      const core::PlacementChoice choice =
          core::negotiate_placement(transport, pp);
      chosen = core::placement_name(choice.kind);
      dist = core::make_placement(choice.kind, cfg.nranks, band);
      if (cfg.rank == 0)
        std::cout << "rank 0: placement auto -> " << chosen
                  << " (alpha=" << choice.params.alpha_seconds
                  << " s, beta=" << choice.params.beta_seconds_per_byte
                  << " s/B; cost 1d=" << choice.cost_seconds[0]
                  << " 2d=" << choice.cost_seconds[1]
                  << " band=" << choice.cost_seconds[2] << ")\n";
    } else {
      dist = core::make_placement(parse_kind(dist_kind), cfg.nranks, band);
    }
    PTLR_CHECK(dist->nproc() == cfg.nranks,
               "distribution grid does not match PTLR_NRANKS");
    res = core::distributed_factorize_rank(a, *dist, acc, transport, rec);
    wire = transport.wire_stats();
  }

  std::cout << "rank " << cfg.rank << "/" << cfg.nranks << ": n=" << n
            << " b=" << b << " dist=" << chosen << " time=" << res.seconds
            << " s, sent " << res.comm.messages << " msgs ("
            << res.comm.bytes << " B), wire " << wire.msgs_sent << " out/"
            << wire.msgs_recv << " in frames, " << wire.retransmits
            << " retransmits, " << wire.rejoins << " rejoins\n";
  if (!res.rank_comm.empty()) {
    const auto& cs = res.rank_comm.front();
    std::cout << "rank " << cfg.rank << ": root egress "
              << cs.root_egress_bytes << " B, " << cs.forwards
              << " forwards (" << cs.forward_bytes << " B), blocked recv "
              << cs.blocked_recv_seconds << " s\n";
  }
  if (res.recovery.rank_restarts() > 0 || res.recovery.checkpoint_writes() > 0)
    std::cout << "rank " << cfg.rank
              << ": recovery restarts=" << res.recovery.rank_restarts()
              << " ckpt_writes=" << res.recovery.checkpoint_writes()
              << " ckpt_loads=" << res.recovery.checkpoint_loads() << "\n";

  // Flush the trace before any --verify oracle runs: the trace documents
  // the wire run, and the oracle's execution would add its own task spans
  // to the same worker lanes.
  const std::string trace = obs::write_chrome_trace_from_env();
  if (!trace.empty())
    std::cout << "rank " << cfg.rank << ": trace written to " << trace
              << "\n";

  if (verify) {
    // Oracle: the shared-memory factorization of the same input, computed
    // fault-free (the wire run already recovered any injected faults; the
    // factors must still match bitwise).
    unsetenv("PTLR_FAULTS");
    unsetenv("PTLR_PERTURB_SEED");
    tlr::TlrMatrix oracle = tlr::TlrMatrix::from_problem(prob, b, acc, 1);
    core::GraphOptions gopt;
    gopt.acc = acc;
    rt::TaskGraph g = core::build_cholesky_graph(oracle, gopt);
    rt::execute(g, 1);
    long long tiles = 0;
    for (int i = 0; i < a.nt(); ++i)
      for (int j = 0; j <= i; ++j) {
        if (dist->owner(i, j) != cfg.rank) continue;
        ++tiles;
        PTLR_CHECK(tlr::tile_to_bytes(a.at(i, j)) ==
                       tlr::tile_to_bytes(oracle.at(i, j)),
                   "verify: tile (" + std::to_string(i) + "," +
                       std::to_string(j) + ") of rank " +
                       std::to_string(cfg.rank) +
                       " differs from the shared-memory oracle");
      }
    std::cout << "rank " << cfg.rank << ": verify OK (" << tiles
              << " owned tiles bitwise identical)\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "ptlr-dist: " << e.what() << "\n";
  return 7;
}
