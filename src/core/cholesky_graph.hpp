// Parameterized task-graph generation for the BAND-DENSE-TLR Cholesky.
//
// Mirrors the PTG/JDF description PaRSEC executes: the right-looking tile
// Cholesky (POTRF → TRSMs → SYRK/GEMM updates per panel) unrolled over data
// keys — a low-rank tile (i, j) accumulates its GEMM updates densely and
// only the one at step j-1 compresses it (hcore::gemm) — with
//   * kernel variants chosen from the per-tile formats (Section VI),
//   * critical-path-aware priorities (panel-ordered, band-boosted),
//   * owners from a pluggable data distribution (Section VII-C), which
//     classifies every dataflow edge LOCAL or REMOTE (Section VII-A),
//   * optional recursive formulations of all region-(1) kernels
//     (Section VII-D), generated as split → sub-kernels → merge sub-DAGs so
//     the simulator sees the concurrency inside band tiles.
//
// The same generator serves all execution modes: with a TlrMatrix it
// attaches real hcore bodies (shared-memory runs, or one rank's slice of
// the graph on the socket mesh, see RankSlice); with only a RankMap it
// attaches modelled durations and message sizes (virtual-cluster runs).
// The recursion is modelled only: real band kernels split a tile through
// nested child tasks inside one graph task (runtime/nested.hpp), so every
// real task writes one whole tile and carries recovery hooks.
#pragma once

#include <functional>
#include <set>

#include "core/cost_model.hpp"
#include "core/rank_map.hpp"
#include "runtime/distribution.hpp"
#include "runtime/taskgraph.hpp"
#include "tlr/tlr_matrix.hpp"

namespace ptlr::core {

/// One rank's slice of the graph, run by the distributed driver
/// (core/dist_cholesky.cpp) on its own replica. The slice keeps the tasks
/// GraphOptions::dist assigns to `rank`, with the shared graph's bodies,
/// priorities and TaskOutputs, and adds:
///   * recv(i, k): one gated task per remote tile a kept task reads (the
///     factored diagonal (k, k) or a panel tile (i, k)). The receive
///     thread opens the gate when the bytes are in; the body writes them
///     into the replica slot. Step-k updates read only step-k panels, so
///     each remote tile is received once.
///   * send(i, k): after each kept POTRF/TRSM whose tile has readers on
///     other ranks, a task that ships the tile to tile_readers(i, k).
///   * ckpt(k): after step k when (k + 1) % ckpt_every == 0 and
///     k + 1 < nt. It reads every owned tile and waits for every earlier
///     send, so its read-after-write edges wait for steps <= k and its
///     write-after-read edges hold back steps > k: a consistent cut with
///     no barrier in the code.
///   * kill(k): the same barrier shape before step k, after ckpt(k - 1).
/// Only tasks of steps >= frontier are emitted, but the format tracking
/// (densification on demand) runs through every step, so a slice built
/// from the freshly compressed replica picks the kernels of an
/// uninterrupted run.
struct RankSlice {
  int rank = 0;
  int frontier = 0;
  int ckpt_every = 0;  ///< 0: no checkpoint tasks
  int kill_step = -1;  ///< -1: no kill task
  std::function<void(int i, int k)> recv;
  std::function<void(int i, int k, const std::set<int>& dests)> send;
  std::function<void(int k)> ckpt;
  std::function<void(int k)> kill;
};

/// The ranks whose tasks read factored tile (i, k) — a broadcast's
/// destination set. For the diagonal (i == k) the owners of the panel-k
/// TRSMs; for a panel tile the owners of SYRK(i) and of the step-k GEMMs
/// in row and column i.
std::set<int> tile_readers(const rt::Distribution& dist, int nt, int i,
                           int k);

/// Knobs for graph generation.
struct GraphOptions {
  compress::Accuracy acc{1e-8, 1 << 30};  ///< recompression accuracy
  /// Recursive formulation of all region-(1) kernels (POTRF, TRSM, SYRK,
  /// GEMM) — the PaRSEC-HiCMA-New behaviour. Simulation mode only.
  bool recursive_all = false;
  /// Recursive POTRF only — the PaRSEC-HiCMA-Prev behaviour. Simulation
  /// mode only.
  bool recursive_potrf = false;
  /// Sub-block size for recursion; 0 picks tile_size/4.
  int recursive_block = 0;
  /// Tile owners; nullptr places everything on process 0.
  const rt::Distribution* dist = nullptr;
  /// Durations/bytes for simulation; nullptr leaves them zero.
  const CostModel* cost = nullptr;
  /// Build only this rank's slice (needs `dist` and a matrix).
  const RankSlice* slice = nullptr;
};

/// Statistics the generator gathers while unrolling the graph.
struct GraphStats {
  double model_flops = 0.0;        ///< Table I flops of all kernels
  double model_flops_dense = 0.0;  ///< flops of region-(1) kernels only
  long long tasks = 0;
  long long tasks_band = 0;        ///< tasks writing on-band tiles
};

/// Build the graph with real hcore bodies operating on `mat` (shared-memory
/// execution mode). Formats/ranks are taken from the matrix itself. Every
/// task writes one tile and declares it as its TaskOutput. Throws
/// ptlr::Error when `opt` asks for the (modelled-only) recursion.
rt::TaskGraph build_cholesky_graph(tlr::TlrMatrix& mat,
                                   const GraphOptions& opt,
                                   GraphStats* stats = nullptr);

/// Build the body-less modelled graph from rank information only
/// (virtual-cluster simulation mode). `opt.cost` must be set.
rt::TaskGraph build_cholesky_graph(const RankMap& ranks,
                                   const GraphOptions& opt,
                                   GraphStats* stats = nullptr);

/// Variant of the simulation-mode graph that skips every TLR GEMM task —
/// the "No_TLR_GEMM" critical-path experiment of Fig. 10.
rt::TaskGraph build_cholesky_graph_no_tlr_gemm(const RankMap& ranks,
                                               const GraphOptions& opt,
                                               GraphStats* stats = nullptr);

}  // namespace ptlr::core
