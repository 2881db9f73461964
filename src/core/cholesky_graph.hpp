// Parameterized task-graph generation for the BAND-DENSE-TLR Cholesky.
//
// Mirrors the PTG/JDF description PaRSEC executes: the right-looking tile
// Cholesky (POTRF → TRSMs → SYRK/GEMM updates per panel) unrolled over data
// keys, with
//   * kernel variants chosen from the per-tile formats (Section VI),
//   * critical-path-aware priorities (panel-ordered, band-boosted),
//   * owners from a pluggable data distribution (Section VII-C), which
//     classifies every dataflow edge LOCAL or REMOTE (Section VII-A),
//   * optional recursive formulations of all region-(1) kernels
//     (Section VII-D), generated as split → sub-kernels → merge sub-DAGs so
//     the simulator sees the concurrency inside band tiles.
//
// The same generator serves both execution modes: with a TlrMatrix it
// attaches real hcore bodies (shared-memory runs); with only a RankMap it
// attaches modelled durations and message sizes (virtual-cluster runs).
// The recursion is modelled only: real band kernels split a tile through
// nested child tasks inside one graph task (runtime/nested.hpp), so every
// real task writes one whole tile and carries recovery hooks.
#pragma once

#include "core/cost_model.hpp"
#include "core/rank_map.hpp"
#include "runtime/distribution.hpp"
#include "runtime/taskgraph.hpp"
#include "tlr/tlr_matrix.hpp"

namespace ptlr::core {

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
