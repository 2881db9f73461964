#include "core/dist_cholesky.hpp"

#include <atomic>
#include <csignal>
#include <exception>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/knobs.hpp"
#include "common/timer.hpp"
#include "core/bcast_tree.hpp"
#include "core/cholesky_graph.hpp"
#include "net/loopback.hpp"
#include "runtime/executor.hpp"
#include "tlr/io.hpp"

namespace ptlr::core {

namespace {

/// One rank of the factorization on replica `a`: build the rank's slice
/// from the replica's tile formats, restore a checkpoint when respawned,
/// then run the slice on one worker while the receive thread opens the
/// recv gates. `abort_mesh` tears the mesh down when the run is cancelled;
/// it must unblock the receive thread.
RankCommStats run_rank(tlr::TlrMatrix& a, const rt::Distribution& dist,
                       const compress::Accuracy& acc,
                       net::SocketTransport& t,
                       const RankRecoveryOptions& rec,
                       const std::function<void()>& abort_mesh) {
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
  eo.on_stall = abort_mesh;
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
  return {.ckpt = CheckpointPolicy::from_env(),
          .epoch = static_cast<int>(*knobs::integer("PTLR_EPOCH")),
          .faults = resil::FaultConfig::from_env()};
}

DistCholeskyResult distributed_factorize(tlr::TlrMatrix& a,
                                         const rt::Distribution& dist,
                                         const compress::Accuracy& acc) {
  const int nt = a.nt();
  const int nranks = dist.nproc();
  const auto n = static_cast<std::size_t>(nranks);

  // Every rank thread gets a private copy of the matrix, as a rank process
  // compresses its own replica.
  std::vector<tlr::TlrMatrix> replicas(n, a);
  net::LoopbackMesh mesh(nranks);
  const resil::RecoveryStats recovery_before = resil::snapshot();
  std::vector<std::exception_ptr> errors(n);
  std::vector<RankCommStats> rank_comm(n);
  // The first rank to fail claims this slot BEFORE its abort tears the
  // mesh down; every later failure is a peer reporting the lost link.
  std::atomic<int> first_failed{-1};
  WallTimer timer;
  {
    std::vector<std::thread> ranks;
    ranks.reserve(n);
    for (int r = 0; r < nranks; ++r) {
      ranks.emplace_back([&, r] {
        const auto ur = static_cast<std::size_t>(r);
        net::SocketTransport& t = mesh[r];
        const auto abort_mesh = [&] {
          int none = -1;
          first_failed.compare_exchange_strong(none, r);
          t.abort();
        };
        try {
          rank_comm[ur] = run_rank(replicas[ur], dist, acc, t, {}, abort_mesh);
          t.drain();
        } catch (...) {
          errors[ur] = std::current_exception();
          abort_mesh();
        }
      });
    }
    for (auto& th : ranks) th.join();
  }
  DistCholeskyResult result;
  result.seconds = timer.seconds();
  result.recovery = resil::diff(recovery_before, resil::snapshot());
  if (const int r = first_failed.load(); r >= 0)
    std::rethrow_exception(errors[static_cast<std::size_t>(r)]);
  for (int i = 0; i < nt; ++i)
    for (int j = 0; j <= i; ++j)
      a.at(i, j) = std::move(
          replicas[static_cast<std::size_t>(dist.owner(i, j))].at(i, j));
  for (int r = 0; r < nranks; ++r) {
    const obs::CommCounters c = mesh[r].stats();
    result.comm.messages += c.messages;
    result.comm.bytes += c.bytes;
  }
  result.rank_comm = std::move(rank_comm);
  return result;
}

DistCholeskyResult distributed_factorize_rank(
    tlr::TlrMatrix& a, const rt::Distribution& dist,
    const compress::Accuracy& acc, net::SocketTransport& transport,
    const RankRecoveryOptions& recovery, const DistCommOptions&) {
  const resil::RecoveryStats recovery_before = resil::snapshot();
  WallTimer timer;
  DistCholeskyResult result;
  try {
    result.rank_comm.push_back(run_rank(a, dist, acc, transport, recovery,
                                        [&transport] { transport.abort(); }));
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
