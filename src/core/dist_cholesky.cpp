#include "core/dist_cholesky.hpp"

#include <csignal>
#include <cstdlib>
#include <exception>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/bcast_tree.hpp"
#include "core/cholesky_graph.hpp"
#include "runtime/executor.hpp"
#include "tlr/io.hpp"

namespace ptlr::core {

namespace {

/// One rank of the factorization on replica `a`: build the rank's slice
/// from the replica's tile formats, restore a checkpoint when respawned,
/// then run the slice on one worker while the receive thread opens the
/// recv gates. Written against the transport seam only, so in-process
/// rank threads and socket-mesh rank processes run the same code.
RankCommStats run_rank(tlr::TlrMatrix& a, const rt::Distribution& dist,
                       const compress::Accuracy& acc,
                       rt::dist::Transport& t,
                       const RankRecoveryOptions& rec) {
  const int rank = t.rank();
  const int nt = a.nt();
  RankCommStats cs;
  cs.rank = rank;

  // The injected whole-process death: every rank computes the same
  // (victim, step) plan from the fault seed, and the victim's kill(step)
  // task SIGKILLs it — no cleanup, no BYE, exactly what a node crash
  // looks like to the mesh. Only the first incarnation (epoch 0) kills,
  // so a respawn cannot re-kill itself at the same step.
  int kill_step = -1;
  if (rec.epoch == 0) {
    const resil::FaultInjector injector(rec.faults);
    const auto plan = injector.rank_kill(dist.nproc(), nt);
    if (plan && plan->victim == rank) kill_step = plan->step;
  }
  const std::string ckpt_path =
      rec.ckpt.enabled() ? rec.ckpt.path_of(rank) : std::string();
  // A respawn resumes at its checkpoint's frontier (0 when it died before
  // the first checkpoint: replay from scratch).
  const int frontier =
      rec.epoch > 0 && rec.ckpt.enabled()
          ? static_cast<int>(peek_checkpoint_frontier(ckpt_path))
          : 0;

  // Serialized exactly once into a refcounted buffer that every queued
  // send, retransmit copy and replay log entry shares. Root-offload
  // binomial tree: the origin transmits ONE copy and the receivers
  // forward, so root egress is O(1) per broadcast instead of O(|dests|).
  auto broadcast = [&](int i, int k, const std::set<int>& dests) {
    const std::uint64_t tag = tile_tag(i, k);
    const int hop = bcast::first_hop(tag, rank, dests);
    if (hop < 0) return;
    const Bytes bytes = tlr::tile_to_bytes(a.at(i, k));
    const auto size = static_cast<long long>(bytes.size());
    t.send(hop, tag, bytes);
    cs.messages += 1;
    cs.bytes += size;
    cs.root_egress_bytes += size;
  };

  std::optional<TileFlow> flow;  // needs the slice's recv tasks
  RankSlice slice;
  slice.rank = rank;
  slice.frontier = frontier;
  slice.ckpt_every = rec.ckpt.every;
  slice.kill_step = kill_step;
  slice.recv = [&](int i, int k) {
    a.at(i, k) = tlr::tile_from_bytes(flow->take(i, k));
  };
  slice.send = broadcast;
  slice.ckpt = [&](int k) {
    // Ack barrier BEFORE the frontier advances on disk: every send this
    // rank made for steps <= k — broadcast roots (the task waits for
    // them) and tree forwards (done before the recv gates they precede
    // opened) — must be delivered, not merely queued. If this rank dies
    // later, replay only re-covers steps at or past the frontier.
    t.flush();
    save_rank_checkpoint(ckpt_path, a, dist, rank,
                         static_cast<std::uint64_t>(k + 1));
    resil::note(resil::ResilienceEvent::kCkptWrite,
                "rank " + std::to_string(rank) + " frontier " +
                    std::to_string(k + 1));
  };
  slice.kill = [](int) { std::raise(SIGKILL); };
  GraphOptions opt;
  opt.acc = acc;
  opt.dist = &dist;
  opt.slice = &slice;
  // Built before a checkpoint load: the original tile formats decide the
  // kernels (which update rounds a low-rank tile).
  rt::TaskGraph g = build_cholesky_graph(a, opt);

  if (rec.epoch > 0) {
    resil::note(resil::ResilienceEvent::kRankRestart,
                "rank " + std::to_string(rank) + " epoch " +
                    std::to_string(rec.epoch));
    if (frontier > 0) {
      PTLR_CHECK(load_rank_checkpoint(ckpt_path, a, dist, rank) ==
                     static_cast<std::uint64_t>(frontier),
                 "checkpoint changed while loading: " + ckpt_path);
      resil::note(resil::ResilienceEvent::kCkptLoad,
                  "rank " + std::to_string(rank) + " frontier " +
                      std::to_string(frontier));
      // Peers may have lost the owned tiles factored before the frontier
      // with the old process; receivers that already have them discard
      // the re-sends by deterministic-id dedup.
      for (int k = 0; k < frontier; ++k)
        for (int i = k; i < nt; ++i)
          if (dist.owner(i, k) == rank)
            broadcast(i, k, tile_readers(dist, nt, i, k));
    }
  }

  flow.emplace(t, dist, nt, g);
  rt::ExecOptions eo;
  eo.open_gates = [&flow](const std::function<void(rt::TaskId)>& open) {
    flow->run(open);
  };
  eo.on_stall = [&t] { t.abort(); };
  const rt::ExecResult res = rt::execute(g, 1, eo);
  cs.messages += flow->forwards();
  cs.bytes += flow->forward_bytes();
  cs.forwards = flow->forwards();
  cs.forward_bytes = flow->forward_bytes();
  cs.blocked_recv_seconds = res.sched.parked_seconds;
  return cs;
}

}  // namespace

RankRecoveryOptions RankRecoveryOptions::from_env() {
  RankRecoveryOptions rec;
  rec.ckpt = CheckpointPolicy::from_env();
  rec.faults = resil::FaultConfig::from_env();
  if (const char* e = std::getenv("PTLR_EPOCH")) {
    char* end = nullptr;
    const long v = std::strtol(e, &end, 10);
    PTLR_CHECK(end != nullptr && *end == '\0' && v >= 0 && v <= 255,
               "PTLR_EPOCH: expected 0..255, got '" + std::string(e) + "'");
    rec.epoch = static_cast<int>(v);
  }
  return rec;
}

DistCholeskyResult distributed_factorize(tlr::TlrMatrix& a,
                                         const rt::Distribution& dist,
                                         const compress::Accuracy& acc) {
  const int nt = a.nt();
  const int nranks = dist.nproc();

  const resil::RecoveryStats recovery_before = resil::snapshot();
  rt::dist::Communicator comm(nranks);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<RankCommStats> rank_comm(static_cast<std::size_t>(nranks));
  // Every rank thread gets a private copy of the matrix, as a rank process
  // of the socket backend compresses its own replica.
  std::vector<tlr::TlrMatrix> replicas(static_cast<std::size_t>(nranks), a);
  WallTimer timer;
  {
    std::vector<std::thread> ranks;
    ranks.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      ranks.emplace_back([&, r] {
        const auto ur = static_cast<std::size_t>(r);
        rt::dist::SimTransport transport(comm, r);
        try {
          rank_comm[ur] = run_rank(replicas[ur], dist, acc, transport, {});
        } catch (...) {
          errors[ur] = std::current_exception();
          transport.abort();  // wake peers blocked on recv
        }
      });
    }
    for (auto& th : ranks) th.join();
  }
  DistCholeskyResult result;
  result.seconds = timer.seconds();
  result.recovery = resil::diff(recovery_before, resil::snapshot());
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (int i = 0; i < nt; ++i)
    for (int j = 0; j <= i; ++j)
      a.at(i, j) = std::move(
          replicas[static_cast<std::size_t>(dist.owner(i, j))].at(i, j));
  result.comm = comm.stats();
  result.rank_comm = std::move(rank_comm);
  return result;
}

DistCholeskyResult distributed_factorize_rank(
    tlr::TlrMatrix& a, const rt::Distribution& dist,
    const compress::Accuracy& acc, rt::dist::Transport& transport,
    const RankRecoveryOptions& recovery, const DistCommOptions&) {
  const resil::RecoveryStats recovery_before = resil::snapshot();
  WallTimer timer;
  DistCholeskyResult result;
  try {
    result.rank_comm.push_back(run_rank(a, dist, acc, transport, recovery));
    transport.drain();
  } catch (...) {
    transport.abort();  // wake local receivers, tear the mesh down
    throw;
  }
  result.seconds = timer.seconds();
  result.recovery = resil::diff(recovery_before, resil::snapshot());
  result.comm = transport.stats();
  return result;
}

}  // namespace ptlr::core
