// Receive side of one rank's slice of the distributed Cholesky.
//
// Every remote tile a rank's slice reads enters through a gated recv task
// (core/cholesky_graph.hpp, RankSlice). TileFlow::run is the executor's
// gate opener (rt::ExecOptions::open_gates) on its own thread: it loops on
// the transport's recv_any over the tags still outstanding, and for each
// arrival
//
//   * forwards the payload to the rank's children in the tile's broadcast
//     tree (core/bcast_tree.hpp) FIRST — the children's progress must not
//     wait for this rank's own work;
//   * hands the bytes to the recv task (take()), whose body decodes them
//     into the rank's replica slot on the worker;
//   * opens the recv task's gate, releasing it to the worker.
//
// It returns once every expected tag has arrived, or throws when the
// transport aborts — which the executor triggers through on_stall on any
// cancellation.
//
// Forward-on-first-arrival is also the recovery invariant: every edge of
// a broadcast tree is an ordinary transport send, so acks, retransmission
// and rejoin sent-log replay make each edge independently reliable. A
// forwarder that dies after receiving re-receives on replay (fresh
// incarnation, fresh dedup state) and re-forwards with the same
// deterministic ids, which the children dedup — exactly-once end to end.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "runtime/distribution.hpp"
#include "runtime/taskgraph.hpp"
#include "runtime/transport.hpp"

namespace ptlr::core {

/// Remnant of the removed broadcast and lookahead knobs, kept header-only
/// because bench/ptlr_bench still reads it. Broadcasts always travel
/// binomial trees and receives are never prefetched. Goes at the next
/// change to the benchmark.
struct DistCommOptions {
  bool tree = true;
  int lookahead = 2;
  static DistCommOptions from_env() { return {}; }
};

/// One rank's communication counters over a factorization.
struct RankCommStats {
  int rank = -1;
  long long messages = 0;      ///< tile messages this rank put on the wire
  long long bytes = 0;         ///< payload bytes of those messages
  /// Bytes sent as broadcast ORIGIN — the root-egress the tree bounds at
  /// one tile per broadcast.
  long long root_egress_bytes = 0;
  long long forwards = 0;        ///< tree forwards performed
  long long forward_bytes = 0;   ///< payload bytes of those forwards
  /// Always zero: receives are no longer prefetched. Kept for
  /// bench/ptlr_bench until the next change to the benchmark.
  long long prefetch_hits = 0;
  long long prefetch_misses = 0;
  /// Seconds the rank's worker sat parked with nothing ready — waiting
  /// for remote tiles (rt::SchedStats::parked_seconds).
  double blocked_recv_seconds = 0.0;
};

/// The message tag of factored tile (i, k): make_tag(0, k, k, k) for the
/// diagonal, make_tag(1, k, i, k) for a panel tile.
std::uint64_t tile_tag(int i, int k);

/// The receive thread of one rank's slice. run() is called once, from the
/// executor's gate-opener thread; take() from the recv task bodies, each
/// after its gate opened (which orders it after run()'s hand-over).
class TileFlow {
 public:
  /// Expect the tile of every gated recv task in `slice`, the graph of
  /// rank t.rank() for matrices of `nt` tile rows.
  TileFlow(rt::dist::Transport& t, const rt::Distribution& dist, int nt,
           const rt::TaskGraph& slice);

  /// Receive, forward, hand over and open until every expected tile is in.
  void run(const std::function<void(rt::TaskId)>& open);

  /// The received bytes of tile (i, k), moved out.
  Bytes take(int i, int k);

  [[nodiscard]] long long forwards() const { return forwards_; }
  [[nodiscard]] long long forward_bytes() const { return forward_bytes_; }

 private:
  struct Expected {
    rt::TaskId task;
    std::vector<int> children;  ///< this rank's broadcast-tree children
    Bytes payload;              ///< from arrival until take()
  };

  rt::dist::Transport& t_;
  std::map<std::uint64_t, Expected> expected_;  ///< by tag, fixed keys
  std::set<std::uint64_t> outstanding_;  ///< not yet arrived (run() only)
  long long forwards_ = 0;
  long long forward_bytes_ = 0;
};

}  // namespace ptlr::core
