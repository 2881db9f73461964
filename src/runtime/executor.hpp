// Shared-memory task executor: a priority-scheduled worker pool that runs a
// TaskGraph's bodies for real. This is the mode every numerical result in
// PTLR is computed in; the virtual-cluster simulator reuses the same graphs
// for distributed-scale studies.
#pragma once

#include <functional>

#include "resilience/fault.hpp"
#include "resilience/stats.hpp"
#include "resilience/watchdog.hpp"
#include "runtime/perturb.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/taskgraph.hpp"
#include "runtime/trace.hpp"

namespace ptlr::rt {

/// Result of a shared-memory run.
struct ExecResult {
  double seconds = 0.0;              ///< wall-clock makespan
  std::vector<TraceEvent> trace;     ///< one event per executed task
  /// Recovery events observed while this run executed (process-global
  /// snapshot diff: injected faults, retries, recoveries, watchdog fires).
  resil::RecoveryStats recovery;
  /// The work-stealing engine's steal/divert/wakeup/park counters.
  SchedStats sched;
};

/// Options of a shared-memory run.
struct ExecOptions {
  bool record_trace = false;  ///< fill ExecResult::trace (incl. seq stamps)
  /// Run TaskGraph::validate() before launching workers, so a malformed
  /// graph (cycle, dangling successor, inconsistent predecessor counts)
  /// throws a descriptive ptlr::Error instead of deadlocking the pool.
  bool validate = true;
  /// Chaos mode (see perturb.hpp): seeded random pop order, steal order
  /// and chain breaks, forced priority inversions and worker stalls.
  /// Defaults honour PTLR_PERTURB_SEED so failing seeds replay without a
  /// recompile.
  PerturbConfig perturb = PerturbConfig::from_env();
  /// Fault injection (see resilience/fault.hpp): transient task-body
  /// exceptions, simulated allocation failures, NaN output poisoning.
  /// Defaults honour PTLR_FAULTS. Only tasks that declare TaskOutputs are
  /// ever targeted, and recovery restores their snapshots, so an injected
  /// run's factor is bitwise identical to a fault-free run's.
  resil::FaultConfig faults = resil::FaultConfig::from_env();
  /// Bounded-backoff retry of ptlr::TransientError failures.
  resil::RetryPolicy retry;
  /// Stall watchdog: if no task completes for the deadline, the run is
  /// cancelled and a descriptive ptlr::Error carrying a dump of
  /// ready/running/pending task names is thrown (after flushing the obs
  /// trace, when enabled). Defaults honour PTLR_WATCHDOG_MS.
  resil::WatchdogConfig watchdog = resil::WatchdogConfig::from_env();
  /// Invoked (once, off-lock) when the run is cancelled — a task error,
  /// the watchdog, or an exception from open_gates — before waiting for
  /// workers and the gate opener to exit. Wire this to whatever can
  /// unblock stuck task bodies and the opener, e.g. Transport::abort()
  /// when they block on receives.
  std::function<void()> on_stall;
  /// Gate hook (see TaskGraph::add_gate). Required iff the graph has
  /// gates, together with on_stall. execute() runs it on one thread
  /// outside the pool, passing `open`: each call opens one task's gate,
  /// and opening the last missing predecessor releases the task to the
  /// workers. It must open every gate once and then return; an exception
  /// it throws (or a return with gates still closed) fails the run.
  /// on_stall must unblock it when the run is cancelled. The thread is
  /// joined before execute() returns. A gated graph runs worker 0 on the
  /// calling thread, so its tasks allocate from the caller's malloc arena.
  std::function<void(const std::function<void(TaskId)>& open)> open_gates;
};

/// Execute every task in `g` respecting its dependencies, using `nthreads`
/// worker threads on the work-stealing engine (see scheduler.hpp). Each
/// worker runs its higher priority bands (TaskInfo::priority, binned into
/// kSchedBands) first, unless perturbation inverts them.
/// ptlr::TransientError failures of tasks with declared outputs are
/// recovered by snapshot-restore + retry (opts.retry); any other exception
/// cancels the run — pending tasks are skipped, the pool drains promptly,
/// and the first error is rethrown on the calling thread.
ExecResult execute(TaskGraph& g, int nthreads, const ExecOptions& opts);

/// Back-compat convenience overload.
ExecResult execute(TaskGraph& g, int nthreads, bool record_trace = false);

}  // namespace ptlr::rt
