#include "core/dist_cholesky.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/bcast_tree.hpp"
#include "hcore/kernels.hpp"
#include "obs/trace.hpp"
#include "tlr/io.hpp"

namespace ptlr::core {

namespace {

using rt::dist::make_tag;

// One rank's view of the factorization, written against the transport
// seam only: the same program runs over in-process rank threads and over
// the socket mesh. `a` is the rank's replica; only tiles owned by
// transport.rank() per `dist` are read/written.
class RankProgram {
 public:
  RankProgram(rt::dist::Transport& t, int nt, const rt::Distribution& dist,
              tlr::TlrMatrix& a, const compress::Accuracy& acc,
              const RankRecoveryOptions& rec = {},
              const DistCommOptions& opts = {})
      : t_(t),
        rank_(t.rank()),
        nt_(nt),
        dist_(dist),
        a_(a),
        acc_(acc),
        rec_(rec),
        opts_(opts),
        injector_(rec.faults),
        flow_(t, cstats_),
        held_(static_cast<std::size_t>(nt) * (nt + 1) / 2, 0) {
    cstats_.rank = rank_;
  }

  void run() {
    int k0 = 0;
    if (rec_.epoch > 0) {
      resil::note(resil::ResilienceEvent::kRankRestart,
                  "rank " + std::to_string(rank_) + " epoch " +
                      std::to_string(rec_.epoch));
      k0 = restore();
    }
    registered_upto_ = k0;
    for (int k = k0; k < nt_; ++k) {
      // Post expected receives for this panel AND the lookahead window:
      // while blocked anywhere in step k, arrivals for steps up to
      // k + lookahead are pulled in (and tree-forwarded) immediately.
      register_through(std::min(nt_ - 1, k + opts_.lookahead));
      maybe_kill(k);
      factor_panel(k);
      update_trailing(k);
      maybe_checkpoint(k);
    }
  }

  [[nodiscard]] const RankCommStats& comm_stats() const { return cstats_; }

 private:
  [[nodiscard]] bool mine(int i, int j) const {
    return dist_.owner(i, j) == rank_;
  }
  tlr::Tile& local(int i, int j) { return a_.at(i, j); }
  [[nodiscard]] std::size_t tri(int i, int j) const {
    return static_cast<std::size_t>(i) * (i + 1) / 2 + j;
  }
  [[nodiscard]] static std::uint64_t panel_tag(int k, int i) {
    return make_tag(1, static_cast<std::uint32_t>(k),
                    static_cast<std::uint32_t>(i), k);
  }

  // Observability: every kernel a rank executes becomes a task span in the
  // rank's lane (worker = rank), so a traced distributed run shows the
  // same timeline structure as the shared-memory executor. The hcore
  // dispatch annotates the actual kernel class; no-op when tracing is off.
  template <typename Body>
  void traced(const char* op, int k, int i, int j, Body&& body) {
    obs::task_begin();
    body();
    // The output of every kernel here is tile (i, j) in place; its
    // serialized size is what a broadcast of the result would carry.
    const long long out_bytes =
        obs::enabled()
            ? static_cast<long long>(tlr::tile_byte_size(local(i, j)))
            : 0;
    obs::task_end(std::string(op) + "(" + std::to_string(i) + "," +
                      std::to_string(j) + ")",
                  /*kind=*/-1, /*panel=*/k, i, j, /*worker=*/rank_,
                  out_bytes);
  }

  void broadcast(const tlr::Tile& t, std::uint64_t tag,
                 const std::set<int>& dests) {
    // Serialized exactly once into a refcounted buffer: every queued
    // send, retransmit copy and replay log entry shares it.
    const Bytes bytes = tlr::tile_to_bytes(t);
    const auto size = static_cast<long long>(bytes.size());
    if (opts_.tree) {
      // Root-offload binomial tree: the origin transmits ONE copy; the
      // receivers forward (core/tile_flow.hpp) down the deterministic
      // tree, so root egress is O(1) per broadcast instead of O(|dests|).
      const int hop = bcast::first_hop(tag, rank_, dests);
      if (hop < 0) return;
      t_.send(hop, tag, bytes);
      cstats_.messages += 1;
      cstats_.bytes += size;
      cstats_.root_egress_bytes += size;
      return;
    }
    // Flat mode: one unicast per destination rank (the PTG collective
    // semantics, kept as the comparison baseline under PTLR_BCAST=flat).
    for (const int d : dests) {
      if (d == rank_) continue;
      t_.send(d, tag, bytes);
      cstats_.messages += 1;
      cstats_.bytes += size;
      cstats_.root_egress_bytes += size;
    }
  }

  // ---- expected-receive registration (lookahead + tree forwarding) ----

  [[nodiscard]] std::vector<int> tree_children(std::uint64_t tag, int origin,
                                               const std::set<int>& dests)
      const {
    if (!opts_.tree) return {};
    return bcast::children(tag, origin, dests, rank_);
  }

  /// Register every broadcast of step `s` this rank will receive, with
  /// the children it must forward each payload to. Safe to call for
  /// overlapping windows — TileFlow::expect is idempotent per tag.
  void register_step(int s) {
    const std::uint64_t diag_tag =
        make_tag(0, static_cast<std::uint32_t>(s), s, s);
    const int diag_owner = dist_.owner(s, s);
    const std::set<int> ddests = diag_dests(s);
    if (rank_ != diag_owner && ddests.count(rank_) != 0)
      flow_.expect(diag_tag, tree_children(diag_tag, diag_owner, ddests));
    for (int i = s + 1; i < nt_; ++i) {
      const int panel_owner = dist_.owner(i, s);
      if (panel_owner == rank_) continue;
      const std::set<int> pdests = panel_dests(s, i);
      if (pdests.count(rank_) == 0) continue;
      const std::uint64_t tag = make_tag(1, static_cast<std::uint32_t>(s),
                                         static_cast<std::uint32_t>(i), s);
      flow_.expect(tag, tree_children(tag, panel_owner, pdests));
    }
  }

  void register_through(int hi) {
    for (; registered_upto_ <= hi; ++registered_upto_)
      register_step(registered_upto_);
  }

  // Destination sets of the step-k broadcasts, shared by the live
  // factorization and the post-respawn rebroadcast of already-factored
  // tiles.
  [[nodiscard]] std::set<int> diag_dests(int k) const {
    std::set<int> dests;
    for (int i = k + 1; i < nt_; ++i) dests.insert(dist_.owner(i, k));
    return dests;
  }
  [[nodiscard]] std::set<int> panel_dests(int k, int i) const {
    std::set<int> dests;
    dests.insert(dist_.owner(i, i));                      // SYRK
    for (int j = k + 1; j < i; ++j)
      dests.insert(dist_.owner(i, j));                    // GEMM row operand
    for (int m = i + 1; m < nt_; ++m)
      dests.insert(dist_.owner(m, i));                    // GEMM col operand
    return dests;
  }

  // ---- rank-death recovery -------------------------------------------

  /// The injected whole-process death: every rank computes the same
  /// (victim, step) plan from the fault seed, and the victim SIGKILLs
  /// itself at the top of its step — no cleanup, no BYE, exactly what a
  /// node crash looks like to the mesh. Only the first incarnation
  /// (epoch 0) kills, so a respawn cannot re-kill itself at the same step.
  void maybe_kill(int k) {
    if (rec_.epoch != 0 || !injector_.enabled()) return;
    const auto plan = injector_.rank_kill(dist_.nproc(), nt_);
    if (plan && plan->victim == rank_ && plan->step == k)
      std::raise(SIGKILL);
  }

  /// Periodic crash-consistent checkpoint of the rank's owned tiles (in
  /// their current, partially-updated state) with frontier k+1 — the
  /// first step a replay from this checkpoint must re-run. The final step
  /// is not checkpointed: a kill after it cannot happen (the plan's step
  /// range ends at nt-1) and the file would only be dead weight.
  void maybe_checkpoint(int k) {
    if (!rec_.ckpt.enabled()) return;
    if ((k + 1) % rec_.ckpt.every != 0 || k + 1 >= nt_) return;
    // Ack barrier BEFORE the frontier advances on disk: every send this
    // rank made so far — broadcast roots and tree forwards alike — must
    // be delivered, not merely queued. If this rank dies later, replay
    // only re-covers steps at or past the frontier; anything older has to
    // already be at its receiver.
    t_.flush();
    // Unflushed low-rank tiles still need panels of steps before the
    // frontier, which no peer re-sends after a restart: they travel in the
    // checkpoint next to the owned tiles.
    std::vector<std::pair<int, int>> retained;
    for (int i = 0; i < nt_; ++i)
      for (int j = 0; j < i; ++j)
        if (held_[tri(i, j)] != 0) retained.emplace_back(i, j);
    save_rank_checkpoint(rec_.ckpt.path_of(rank_), a_, dist_, rank_,
                         static_cast<std::uint64_t>(k + 1), retained);
    resil::note(resil::ResilienceEvent::kCkptWrite,
                "rank " + std::to_string(rank_) + " frontier " +
                    std::to_string(k + 1));
  }

  /// Respawn path: load the checkpoint (if one exists), re-broadcast every
  /// owned tile that was factored before the frontier — peers may have
  /// lost those messages with the old process; receivers that already have
  /// them discard the re-sends by deterministic-id dedup — and return the
  /// step to resume at.
  int restore() {
    if (!rec_.ckpt.enabled()) return 0;
    const std::string path = rec_.ckpt.path_of(rank_);
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
      std::fclose(f);
    } else {
      return 0;  // died before the first checkpoint: replay from scratch
    }
    std::vector<std::pair<int, int>> retained;
    const std::uint64_t frontier =
        load_rank_checkpoint(path, a_, dist_, rank_, &retained);
    for (const auto& [i, j] : retained) held_[tri(i, j)] = 1;
    resil::note(resil::ResilienceEvent::kCkptLoad,
                "rank " + std::to_string(rank_) + " frontier " +
                    std::to_string(frontier));
    const int k0 = static_cast<int>(frontier);
    for (int k = 0; k < k0; ++k) {
      if (mine(k, k))
        broadcast(local(k, k),
                  make_tag(0, static_cast<std::uint32_t>(k), k, k),
                  diag_dests(k));
      for (int i = k + 1; i < nt_; ++i) {
        if (mine(i, k))
          broadcast(local(i, k), panel_tag(k, i), panel_dests(k, i));
      }
    }
    return k0;
  }

  void factor_panel(int k) {
    const std::uint64_t diag_tag = make_tag(0, static_cast<std::uint32_t>(k),
                                            k, k);
    const int diag_owner = dist_.owner(k, k);
    // POTRF on the diagonal owner, then broadcast down the panel.
    if (mine(k, k)) {
      traced("potrf", k, k, k, [&] { hcore::potrf(local(k, k)); });
      broadcast(local(k, k), diag_tag, diag_dests(k));
    }

    // Ranks holding panel tiles need the factored diagonal.
    bool need_diag = false;
    for (int i = k + 1; i < nt_ && !need_diag; ++i)
      need_diag = mine(i, k);
    if (!need_diag) return;

    tlr::Tile diag_copy;
    const tlr::Tile* diag = nullptr;
    if (mine(k, k)) {
      diag = &local(k, k);
    } else {
      (void)diag_owner;
      diag_copy = tlr::tile_from_bytes(flow_.get(diag_tag));
      diag = &diag_copy;
    }

    // TRSMs on owned panel tiles, then broadcast each result to every
    // rank whose trailing updates read it.
    for (int i = k + 1; i < nt_; ++i) {
      if (!mine(i, k)) continue;
      traced("trsm", k, i, k, [&] { hcore::trsm(*diag, local(i, k)); });
      broadcast(local(i, k), panel_tag(k, i), panel_dests(k, i));
    }
  }

  /// Panel tile (i, k): the owned tile, or this rank's received copy. A
  /// received panel lands in the rank's own replica slot on first use and
  /// stays there until the last flush that reads it has run.
  const tlr::Tile& panel(int i, int k) {
    if (mine(i, k)) return local(i, k);
    if (held_[tri(i, k)] == 0) {
      // Consume through the flow: a hit means the bytes arrived while this
      // rank was computing (lookahead/forwarding did its job); a miss
      // blocks in recv_any, servicing other expected tags.
      local(i, k) = tlr::tile_from_bytes(flow_.get(panel_tag(k, i)));
      held_[tri(i, k)] = 1;
    }
    return local(i, k);
  }

  /// True while an owned low-rank tile whose flush runs after step k reads
  /// panel row i: a tile (i, j) flushed at step j-1 > k, or a tile (m, i)
  /// flushed at step i-1 > k. Every panel (i, kk) with kk <= k is read by
  /// such a flush, so the answer does not depend on kk.
  [[nodiscard]] bool row_needed_after(int i, int k) {
    for (int j = k + 2; j < i; ++j)
      if (mine(i, j) && local(i, j).is_lowrank()) return true;
    if (i < k + 2) return false;
    for (int m = i + 1; m < nt_; ++m)
      if (mine(m, i) && local(m, i).is_lowrank()) return true;
    return false;
  }

  /// The low-rank tile (m, n) takes all of its updates at once at step
  /// n-1, from the final panel pairs (m, k), (n, k) in ascending k: the
  /// kernel sequence the shared-memory graph runs one step at a time
  /// (dense accumulation, then one compression at k = n-1), so the factors
  /// agree bit for bit.
  void flush(int m, int n) {
    const int k_last = n - 1;
    traced("flush", k_last, m, n, [&] {
      for (int k = 0; k < n; ++k)
        hcore::gemm(panel(m, k), panel(n, k), local(m, n), acc_,
                    k == k_last);
    });
  }

  void update_trailing(int k) {
    // Same kernel sequence per tile as the shared-memory graph: a dense
    // tile takes one GEMM per step, a low-rank tile one flush at step n-1.
    for (int n = k + 1; n < nt_; ++n) {
      for (int m = n; m < nt_; ++m) {
        if (!mine(m, n)) continue;
        if (m == n) {
          traced("syrk", k, m, m,
                 [&] { hcore::syrk(panel(m, k), local(m, m)); });
        } else if (local(m, n).is_dense()) {
          traced("gemm", k, m, n, [&] {
            hcore::gemm(panel(m, k), panel(n, k), local(m, n), acc_);
          });
        } else if (n == k + 1) {
          flush(m, n);
        }
      }
    }
    // Every step-k panel this rank is a destination of is consumed within
    // step k, even when only a later flush reads it: the checkpoint after
    // this step must hold it, since no peer re-sends it after a restart.
    for (int i = k + 1; i < nt_; ++i)
      if (!mine(i, k) && panel_dests(k, i).count(rank_) != 0)
        (void)panel(i, k);
    // Drop received panels whose last reader has run.
    for (int i = 1; i < nt_; ++i) {
      if (row_needed_after(i, k)) continue;
      for (int j = 0; j < i && j <= k; ++j) {
        if (held_[tri(i, j)] == 0) continue;
        local(i, j) = tlr::Tile();
        held_[tri(i, j)] = 0;
      }
    }
  }

  rt::dist::Transport& t_;
  int rank_;
  int nt_;
  const rt::Distribution& dist_;
  tlr::TlrMatrix& a_;
  compress::Accuracy acc_;
  RankRecoveryOptions rec_;
  DistCommOptions opts_;
  resil::FaultInjector injector_;
  RankCommStats cstats_;
  TileFlow flow_;
  /// First step whose broadcasts are NOT yet registered with the flow.
  int registered_upto_ = 0;
  /// Per lower-triangle slot: 1 while the replica slot holds a received
  /// (not owned) panel tile.
  std::vector<char> held_;
};

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
                                         const compress::Accuracy& acc,
                                         const DistCommOptions& opts) {
  const int nt = a.nt();
  const int nranks = dist.nproc();

  const resil::RecoveryStats recovery_before = resil::snapshot();
  rt::dist::Communicator comm(nranks);
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(nranks));
  std::vector<RankCommStats> rank_comm(static_cast<std::size_t>(nranks));
  WallTimer timer;
  {
    // Every rank thread gets a private replica holding only its owned
    // tiles; received panels land in its other slots, exactly as in a rank
    // process of the socket backend. The owned tiles move back into `a`
    // once all ranks are done.
    std::vector<tlr::TlrMatrix> replicas;
    replicas.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r)
      replicas.emplace_back(a.n(), a.tile_size());
    for (int i = 0; i < nt; ++i)
      for (int j = 0; j <= i; ++j)
        replicas[static_cast<std::size_t>(dist.owner(i, j))].at(i, j) =
            std::move(a.at(i, j));
    std::vector<std::thread> ranks;
    ranks.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      ranks.emplace_back([&, r] {
        rt::dist::SimTransport transport(comm, r);
        RankProgram prog(transport, nt, dist,
                         replicas[static_cast<std::size_t>(r)], acc, {}, opts);
        try {
          prog.run();
        } catch (...) {
          errors[static_cast<std::size_t>(r)] = std::current_exception();
          transport.abort();  // wake peers blocked on recv
        }
        rank_comm[static_cast<std::size_t>(r)] = prog.comm_stats();
      });
    }
    for (auto& th : ranks) th.join();
    for (int i = 0; i < nt; ++i)
      for (int j = 0; j <= i; ++j)
        a.at(i, j) = std::move(
            replicas[static_cast<std::size_t>(dist.owner(i, j))].at(i, j));
  }
  DistCholeskyResult result;
  result.seconds = timer.seconds();
  result.recovery = resil::diff(recovery_before, resil::snapshot());
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  result.comm = comm.stats();
  result.rank_comm = std::move(rank_comm);
  return result;
}

DistCholeskyResult distributed_factorize_rank(
    tlr::TlrMatrix& a, const rt::Distribution& dist,
    const compress::Accuracy& acc, rt::dist::Transport& transport,
    const RankRecoveryOptions& recovery, const DistCommOptions& opts) {
  const resil::RecoveryStats recovery_before = resil::snapshot();
  WallTimer timer;
  RankProgram prog(transport, a.nt(), dist, a, acc, recovery, opts);
  try {
    prog.run();
    transport.drain();
  } catch (...) {
    transport.abort();  // wake local receivers, tear the mesh down
    throw;
  }
  DistCholeskyResult result;
  result.seconds = timer.seconds();
  result.recovery = resil::diff(recovery_before, resil::snapshot());
  result.comm = transport.stats();
  result.rank_comm.push_back(prog.comm_stats());
  return result;
}

}  // namespace ptlr::core
