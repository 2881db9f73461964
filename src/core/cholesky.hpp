// Top-level BAND-DENSE-TLR Cholesky drivers.
//
// factorize()          — shared-memory execution with real numerics
//                        (auto-tunes BAND_SIZE, densifies the band,
//                        builds the task graph, runs the worker pool).
// simulate_cholesky()  — the same algorithm on the virtual cluster
//                        (Section VIII's distributed experiments), driven
//                        by rank information and the kernel cost model.
#pragma once

#include "core/band_tuner.hpp"
#include "core/cholesky_graph.hpp"
#include "core/cost_model.hpp"
#include "core/rank_map.hpp"
#include "obs/report.hpp"
#include "resilience/fault.hpp"
#include "resilience/stats.hpp"
#include "resilience/watchdog.hpp"
#include "runtime/executor.hpp"
#include "runtime/simulator.hpp"

namespace ptlr::core {

/// Configuration of a shared-memory factorization.
struct CholeskyConfig {
  compress::Accuracy acc{1e-8, 1 << 30};  ///< recompression accuracy
  /// Dense band width; 0 runs the Algorithm 1 auto-tuner.
  int band_size = 0;
  double fluctuation_lo = 0.67;   ///< auto-tuner box bound (Section V-B)
  int nthreads = 2;
  /// Chaos mode for the worker pool (see runtime/perturb.hpp): replay the
  /// same factorization across adversarial schedules. Numerics must not
  /// depend on it — the schedule-independence property tests assert so.
  rt::PerturbConfig perturb = rt::PerturbConfig::from_env();
  /// Fault injection for the worker pool (see resilience/fault.hpp).
  /// Recovery must be exact: a faulted run's factor is bitwise identical
  /// to a fault-free run's, which the resilience tests assert.
  resil::FaultConfig faults = resil::FaultConfig::from_env();
  /// Retry policy for transient task failures.
  resil::RetryPolicy retry;
  /// Stall watchdog for the worker pool (PTLR_WATCHDOG_MS).
  resil::WatchdogConfig watchdog = resil::WatchdogConfig::from_env();
  /// What to do when POTRF hits a non-positive pivot (numerical
  /// breakdown): fail, or shift the diagonal and refactorize.
  resil::BreakdownPolicy breakdown;
};

/// Outcome of a shared-memory factorization.
struct CholeskyResult {
  int band_size = 1;          ///< width used (tuned or forced)
  double tune_seconds = 0.0;  ///< auto-tuning time (Fig. 6d)
  double regen_seconds = 0.0; ///< band regeneration time (Fig. 6d)
  double factor_seconds = 0.0;
  double model_flops = 0.0;     ///< Table I model total
  double measured_flops = 0.0;  ///< flops actually charged by kernels
  GraphStats stats;
  BandTuneResult tuning;      ///< populated when band_size was auto
  rt::ExecResult exec;        ///< exec.run names the spans when traced
  /// Measured-duration critical path (populated when obs::enabled()).
  obs::CriticalPathReport critical_path;
  /// Recovery events over the whole factorization (injected faults,
  /// retries, shift restarts, dense fallbacks, watchdog fires).
  resil::RecoveryStats recovery;
  /// Shift-and-restart outcome: restarts taken and the diagonal shift the
  /// returned factor corresponds to (0 when the first attempt succeeded).
  int restarts = 0;
  double shift = 0.0;
};

/// Factorize `a` in place (lower Cholesky). If `regen` is given, band tiles
/// are regenerated exactly from the problem after tuning (the paper's
/// regeneration step); otherwise low-rank band tiles are decompressed.
/// Requires `a` built with band_size 1 when auto-tuning.
CholeskyResult factorize(tlr::TlrMatrix& a,
                         const stars::CovarianceProblem* regen,
                         const CholeskyConfig& cfg);

/// Virtual cluster configuration for simulated runs.
struct VirtualClusterConfig {
  int nodes = 16;
  int cores_per_node = 16;
  rt::CommModel comm;
  KernelRates rates;
  /// Hybrid band distribution width; 0 uses the rank map's band size.
  /// Ignored when band_distribution is false (plain 2DBCDD).
  bool band_distribution = true;
  int band_dist_width = 0;
  bool recursive_all = true;
  bool recursive_potrf = true;
  int recursive_block = 0;
  bool no_tlr_gemm = false;  ///< Fig. 10 critical-path variant
  /// Heterogeneous nodes (Section IX future work): accelerators per node
  /// that run dense region-(1) kernels accel_speedup× faster.
  int accel_per_node = 0;
  double accel_speedup = 8.0;
  /// Let accelerators run the low-rank kernels too (batched GPU TLR
  /// kernels à la the paper's refs [2], [19], [20]), not only the dense
  /// region-(1) set.
  bool accel_all_kernels = false;
  /// Dynamic inter-node load balancing (Section IX future work): idle
  /// nodes steal ready tasks from loaded peers, paying the data shipping.
  bool work_stealing = false;
};

/// Outcome of a simulated factorization.
struct SimCholeskyResult {
  rt::SimResult sim;  ///< sim.run names the spans when obs::enabled()
  GraphStats stats;
  rt::TaskGraph::EdgeStats edges;
};

/// Simulate the BAND-DENSE-TLR Cholesky described by `ranks` on the
/// virtual cluster. The rank map's band size selects the dense band.
SimCholeskyResult simulate_cholesky(const RankMap& ranks,
                                    const VirtualClusterConfig& cfg);

}  // namespace ptlr::core
