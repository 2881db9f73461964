// End-of-run reporters: the paper's observational artifacts reproduced
// from real data structures and recorded executions.
//
//   * rank_histogram   — distribution of off-diagonal tile ranks (the
//                        Fig. 1 annotations as a full histogram);
//   * memory_report    — exact-rank footprint vs. the static-maxrank
//                        descriptor vs. dense (Fig. 8 / Table-style);
//   * critical_path    — longest dependency chain through the executed
//                        DAG weighted by the *measured* task durations
//                        (the Fig. 10 quantity, from a trace instead of
//                        the simulator's model);
//   * panel_release_times / kind_breakdown — the Fig. 9 release curve and
//                        the Fig. 11 per-class time split.
//
// The last three reduce one run's spans (obs::run_spans of an
// ExecResult::run or SimResult::run), so several runs in one process stay
// apart. Each reporter returns a plain struct plus to_ascii/to_json
// renderers where examples, benches and tools print it.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/taskgraph.hpp"
#include "tlr/tlr_matrix.hpp"

namespace ptlr::obs {

/// Histogram of off-diagonal tile ranks in fixed-width buckets.
struct RankHistogram {
  int bucket_width = 8;
  int tile_size = 0;
  long long lowrank_tiles = 0;   ///< compressed off-diagonal tiles
  long long dense_offdiag = 0;   ///< densified off-diagonal (band) tiles
  long long dense_diag = 0;      ///< diagonal tiles (always dense)
  int min_rank = 0, max_rank = 0;
  double mean_rank = 0.0;
  /// counts[i] = tiles with rank in [i*bucket_width, (i+1)*bucket_width).
  std::vector<long long> counts;
};

RankHistogram rank_histogram(const tlr::TlrMatrix& m, int bucket_width = 8);
std::string to_ascii(const RankHistogram& h);
std::string to_json(const RankHistogram& h);

/// Memory footprint of a TLR matrix under the three allocation policies
/// the paper compares (Section VIII-E / Fig. 8).
struct MemoryReport {
  int n = 0, tile_size = 0, band_size = 0;
  int static_maxrank = 0;        ///< descriptor constant used for `static`
  double exact_mb = 0.0;         ///< dynamic exact-rank allocation ("New")
  double static_mb = 0.0;        ///< static maxrank descriptor ("Prev")
  double dense_mb = 0.0;         ///< full dense lower triangle
  double ratio_vs_dense = 0.0;   ///< exact / dense
  double ratio_vs_static = 0.0;  ///< exact / static
};

/// `static_maxrank` 0 uses tile_size/2 (the paper's descriptor default).
MemoryReport memory_report(const tlr::TlrMatrix& m, int static_maxrank = 0);
std::string to_ascii(const MemoryReport& r);
std::string to_json(const MemoryReport& r);

/// Critical path through an executed DAG using measured durations.
struct CriticalPathReport {
  double path_seconds = 0.0;    ///< longest chain of task durations
  int path_tasks = 0;           ///< tasks on that chain
  double serial_seconds = 0.0;  ///< sum of all task durations
  double makespan = 0.0;        ///< last end minus first start of the run
  /// serial / path: the average parallelism the DAG admits; the measured
  /// makespan can approach path_seconds but never beat it.
  double avg_parallelism = 0.0;
};

/// `spans` are one run of `g` (run_spans); a task without a span counts
/// as zero duration.
CriticalPathReport critical_path(const rt::TaskGraph& g,
                                 const std::vector<Span>& spans);
std::string to_ascii(const CriticalPathReport& r);
std::string to_json(const CriticalPathReport& r);

/// Completion time of the last task of each panel, from the run's first
/// start — the panel release curve of Fig. 9. One entry per panel index
/// up to the largest present. `spans` are one run (run_spans).
std::vector<double> panel_release_times(const std::vector<Span>& spans);

/// How many tasks of each kind ran and how much time they took — the
/// per-kernel-class breakdown behind the Fig. 11 analysis ("most flops
/// come from TLR GEMMs"). Sorted by time, largest first.
struct KindStats {
  int kind = 0;
  long long count = 0;
  double seconds = 0.0;
};
std::vector<KindStats> kind_breakdown(const std::vector<Span>& spans);

}  // namespace ptlr::obs
