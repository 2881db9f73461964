// Distributed-memory BAND-DENSE-TLR Cholesky over the socket mesh:
// each of N ranks with private tile storage runs its slice of the one
// task graph (core/cholesky_graph.hpp, RankSlice) on the shared-memory
// executor with one worker — the PTG execution of the paper, with the
// REMOTE dataflow edges of Section VII-A made concrete:
//
//   * the slice keeps the POTRF/TRSM/SYRK/GEMM tasks `dist` assigns to
//     the rank, with the shared graph's bodies and priorities, so every
//     tile runs the shared-memory kernel sequence and the factors match
//     the shared-memory factorization bit for bit by construction;
//   * a send task after each owned POTRF/TRSM whose tile other ranks read
//     serializes the tile once and sends ONE copy down its binomial
//     broadcast tree (core/bcast_tree.hpp);
//   * a gated recv task per remote tile the slice reads: the receive
//     thread (core/tile_flow.hpp) forwards each arrival to its tree
//     children, hands the bytes to the recv task and opens its gate
//     (rt::ExecOptions::open_gates); the task decodes them into the
//     rank's replica slot, so updates run as soon as their operands
//     arrive;
//   * with checkpointing on, a ckpt(k) task writes the owned tiles —
//     dense accumulators included — after step k (checkpoint format v3),
//     and a seeded rank kill is a kill(k) task of the same shape.
//
// Every rank runs the same program over a net::SocketTransport: as one OS
// process per rank (distributed_factorize_rank, see tools/ptlr-launch), or
// as N threads of one process on a loopback mesh (distributed_factorize,
// net/loopback.hpp).
#pragma once

#include <vector>

#include "compress/compress.hpp"
#include "core/checkpoint.hpp"
#include "core/tile_flow.hpp"
#include "net/transport.hpp"
#include "obs/counters.hpp"
#include "resilience/fault.hpp"
#include "resilience/stats.hpp"
#include "runtime/distribution.hpp"
#include "tlr/tlr_matrix.hpp"

namespace ptlr::core {

/// Outcome of a distributed factorization.
struct DistCholeskyResult {
  double seconds = 0.0;
  obs::CommCounters comm;  ///< real messages/bytes exchanged
  /// Recovery events over this run (message drops/duplicates injected by
  /// the transport's fault config, and their recoveries).
  resil::RecoveryStats recovery;
  /// Per-rank communication-path counters (broadcast egress, tree
  /// forwards, blocked-receive time). One entry per rank for
  /// distributed_factorize; exactly one entry — this endpoint's — for
  /// distributed_factorize_rank.
  std::vector<RankCommStats> rank_comm;
};

/// Factorize `a` in place with dist.nproc() ranks owning tiles per `dist`,
/// as threads of this process on a loopback socket mesh. Each rank thread
/// runs the program of a rank process (distributed_factorize_rank) on a
/// private copy of `a`; the owned tiles move back into `a` at the end.
/// The mesh connects before the clock starts, so `seconds` is factor
/// time. When ranks fail, the first failing rank's own exception is
/// rethrown, not a peer's report of the lost connection. Kernels are the
/// hcore set of the shared-memory path; `acc` controls low-rank
/// compression as in the shared-memory path.
DistCholeskyResult distributed_factorize(tlr::TlrMatrix& a,
                                         const rt::Distribution& dist,
                                         const compress::Accuracy& acc);

/// Rank-death recovery knobs for one rank process of the socket backend.
/// Default-constructed = no checkpointing, first incarnation, no faults —
/// the pre-recovery behavior.
struct RankRecoveryOptions {
  /// Periodic tile checkpointing (PTLR_CKPT / PTLR_CKPT_DIR).
  CheckpointPolicy ckpt;
  /// Incarnation of this rank process: 0 = launched normally, >0 = the
  /// launcher respawned it after a crash (PTLR_EPOCH). A respawn loads its
  /// checkpoint (if any) and replays from the stored frontier; injected
  /// rank kills only fire at epoch 0, so a respawn cannot re-kill itself.
  int epoch = 0;
  /// Fault plan for the rank_kill class (PTLR_FAULTS "kill=<p>"). Message
  /// and task faults stay where they were (transport / executor); the
  /// whole-process kill is decided here because the plan is keyed on the
  /// k-steps of the slice.
  resil::FaultConfig faults;

  static RankRecoveryOptions from_env();
};

/// Run ONE rank of the factorization over `transport` — the entry point a
/// rank process of the socket backend calls. `a` is this process's freshly
/// compressed replica of the matrix: the slice is built from its tile
/// formats, and only the tiles `dist` assigns to transport.rank() are
/// factored in place. The slot of a tile another rank owns is overwritten
/// with the received factored tile when the slice reads it, and is left
/// as it was otherwise. Completes the transport's drain barrier before
/// returning, so wire-level stats are final. Comm stats in the result are
/// this endpoint's own sends.
///
/// With `recovery` enabled the rank checkpoints its owned tiles every
/// ckpt.every steps, and — when running as a respawn (epoch > 0) —
/// restores them, re-broadcasts the factored tiles peers may have lost
/// with the old process, and resumes at the checkpointed frontier. The
/// replay runs the same kernels on the same data, so it is bitwise
/// identical to an uninterrupted run. The last parameter is unused; it
/// stays until bench/ptlr_bench stops passing it.
DistCholeskyResult distributed_factorize_rank(
    tlr::TlrMatrix& a, const rt::Distribution& dist,
    const compress::Accuracy& acc, net::SocketTransport& transport,
    const RankRecoveryOptions& recovery = {},
    const DistCommOptions& = {});

}  // namespace ptlr::core
