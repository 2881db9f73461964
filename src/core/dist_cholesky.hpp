// Distributed-memory BAND-DENSE-TLR Cholesky over the transport seam:
// N ranks with private tile storage run the right-looking factorization
// owner-computes, exchanging factored tiles as serialized messages (the
// REMOTE dataflow of Section VII-A made concrete):
//
//   POTRF(k)   on owner(k,k), then L(k,k)  → ranks owning panel k tiles;
//   TRSM(i,k)  on owner(i,k), then A(i,k)  → ranks owning the trailing
//              tiles it updates;
//   SYRK/GEMM  on the owner of the updated tile, reading received copies.
//
// Broadcasts travel binomial trees by default (core/bcast_tree.hpp): the
// origin serializes the tile once into a refcounted buffer and sends ONE
// copy; receivers forward down deterministic trees via the lookahead
// prefetcher (core/tile_flow.hpp), which also posts expected receives for
// the next PTLR_LOOKAHEAD panels so updates rarely block in recv.
// PTLR_BCAST=flat restores the one-unicast-per-destination PTG pattern.
//
// Numerically identical to the shared-memory factorization (same kernel
// sequence per tile), which the tests assert tile-by-tile. The rank
// program is written against rt::dist::Transport only, so the same code
// runs over the in-process Communicator (distributed_factorize, N rank
// threads) and over the real socket mesh (distributed_factorize_rank, one
// OS process per rank, see src/net and tools/ptlr-launch).
#pragma once

#include <vector>

#include "compress/compress.hpp"
#include "core/checkpoint.hpp"
#include "core/tile_flow.hpp"
#include "resilience/fault.hpp"
#include "resilience/stats.hpp"
#include "runtime/distribution.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/transport.hpp"
#include "tlr/tlr_matrix.hpp"

namespace ptlr::core {

/// Outcome of a distributed factorization.
struct DistCholeskyResult {
  double seconds = 0.0;
  rt::dist::Communicator::Stats comm;  ///< real messages/bytes exchanged
  /// Recovery events over this run (message drops/duplicates injected by
  /// the communicator's fault config, and their recoveries).
  resil::RecoveryStats recovery;
  /// Per-rank communication-path counters (broadcast egress, tree
  /// forwards, lookahead hits, blocked-receive time). One entry per rank
  /// for the in-process driver; exactly one entry — this endpoint's — for
  /// distributed_factorize_rank.
  std::vector<RankCommStats> rank_comm;
};

/// Factorize `a` in place with `nranks` ranks (one thread each) owning
/// tiles per `dist`, over the in-process transport. Kernels are the
/// hcore set of the shared-memory path; `acc` controls low-rank recompression as in
/// the shared-memory path. `opts` selects the communication path
/// (broadcast trees, panel lookahead); the default reads PTLR_BCAST /
/// PTLR_LOOKAHEAD.
DistCholeskyResult distributed_factorize(
    tlr::TlrMatrix& a, const rt::Distribution& dist,
    const compress::Accuracy& acc,
    const DistCommOptions& opts = DistCommOptions::from_env());

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
  /// whole-process kill is decided here because only the rank program
  /// knows the k-step boundaries the plan is keyed on.
  resil::FaultConfig faults;

  static RankRecoveryOptions from_env();
};

/// Run ONE rank of the factorization over `transport` — the entry point a
/// rank process of the socket backend calls. `a` is this process's replica
/// of the matrix: only the tiles `dist` assigns to transport.rank() are
/// read as inputs and factored in place; every other tile is left
/// untouched (its factored value lives in the owning process). Completes
/// the transport's drain barrier before returning, so wire-level stats
/// are final. Comm stats in the result are this endpoint's own sends.
///
/// With `recovery` enabled the rank checkpoints its tiles every
/// ckpt.every steps, and — when running as a respawn (epoch > 0) —
/// restores them, re-broadcasts the factored tiles peers may have lost
/// with the old process, and resumes at the checkpointed frontier. The
/// deterministic per-site compression seeds make the replay bitwise
/// identical to an uninterrupted run.
DistCholeskyResult distributed_factorize_rank(
    tlr::TlrMatrix& a, const rt::Distribution& dist,
    const compress::Accuracy& acc, rt::dist::Transport& transport,
    const RankRecoveryOptions& recovery = {},
    const DistCommOptions& opts = DistCommOptions::from_env());

}  // namespace ptlr::core
