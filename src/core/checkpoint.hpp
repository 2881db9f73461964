// Per-rank tile checkpointing for the distributed factorization.
//
// The rank_kill fault class (whole-process SIGKILL, resilience/fault.hpp)
// cannot be recovered by retry or retransmission: the dead rank's address
// space is gone. Recovery instead goes through this module — a ckpt(k)
// task of the rank's slice (core/cholesky_graph.hpp) serializes the rank's
// OWNED tiles in their state after step k, and the task frontier k + 1
// (the first step not yet applied to them), to a private file. A low-rank
// tile between its first and last update is stored as its dense
// accumulator, so no panel from before the frontier is needed again. When
// the launcher respawns the rank, the new process loads the checkpoint and
// replays the factorization from the frontier instead of from scratch.
//
// The write is crash-consistent: serialize to "<path>.tmp", fsync, then
// rename over the previous checkpoint. A rank killed mid-write leaves the
// prior checkpoint intact; the leftover .tmp is overwritten by the next
// attempt. Loads go through the same hardened-reader discipline as
// tlr/io.cpp: every size field is bounds-checked against the actual file
// size BEFORE any allocation it controls, so a corrupt checkpoint throws
// ptlr::Error rather than OOMing the respawned process.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/distribution.hpp"
#include "tlr/tlr_matrix.hpp"

namespace ptlr::core {

/// When and where a rank checkpoints. Default-constructed = disabled.
/// Parsed from PTLR_CKPT / PTLR_CKPT_DIR (see from_env).
struct CheckpointPolicy {
  /// Checkpoint after every `every` completed k-steps; 0 disables.
  int every = 0;
  /// Directory holding the per-rank checkpoint files.
  std::string dir = ".";

  [[nodiscard]] bool enabled() const { return every > 0; }

  /// The rank's checkpoint file: "<dir>/ptlr-ckpt.<rank>.bin".
  [[nodiscard]] std::string path_of(int rank) const;

  /// Parse the PTLR_CKPT syntax: unset/empty/"off" → disabled;
  /// "every:<k>" (k >= 1) → checkpoint each k steps. Anything else throws
  /// ptlr::Error. `dir` is nullptr/empty → ".".
  static CheckpointPolicy parse(const char* spec, const char* dir);

  /// Reads PTLR_CKPT and PTLR_CKPT_DIR from the environment.
  static CheckpointPolicy from_env();
};

/// Write rank `rank`'s checkpoint (format v3): every tile `dist` assigns
/// to it, in its current, possibly partially-updated state, plus
/// `frontier`, the first k-step the replay must re-run. Crash-consistent
/// (tmp + fsync + rename); throws ptlr::Error on I/O failure after
/// unlinking the tmp file.
void save_rank_checkpoint(const std::string& path, const tlr::TlrMatrix& a,
                          const rt::Distribution& dist, int rank,
                          std::uint64_t frontier);

/// Load `path` into the owned tiles of `a`, validating that the checkpoint
/// was written by this (rank, nranks, nt) configuration and that every
/// stored tile is owned by `rank` under `dist`. Returns the stored
/// frontier. Throws ptlr::Error on any mismatch or corruption.
std::uint64_t load_rank_checkpoint(const std::string& path,
                                   tlr::TlrMatrix& a,
                                   const rt::Distribution& dist, int rank);

/// The frontier stored in `path` without loading tiles — what a respawned
/// rank announces in its REJOIN frame before the factorization starts.
/// Returns 0 when the file does not exist (replay from scratch); throws on
/// a corrupt header.
std::uint64_t peek_checkpoint_frontier(const std::string& path);

}  // namespace ptlr::core
