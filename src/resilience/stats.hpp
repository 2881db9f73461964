// Recovery accounting and policy knobs for the resilience layer.
//
// Two consumers need to know what the recovery machinery did:
//   * the observability layer, when enabled, wants trace instant-events
//     and counters (obs::record_resilience);
//   * the drivers ALWAYS want exact numbers — the acceptance criterion
//     "injected == recovered, factor bitwise identical" cannot depend on
//     whether tracing happened to be on.
// resil::note() feeds both: an always-on process-global atomic registry
// (read via snapshot()/diff() into a RecoveryStats block that drivers
// embed in their results) plus the obs channel when that is enabled.
#pragma once

#include <cstdint>
#include <string>

#include "obs/counters.hpp"

namespace ptlr::resil {

using obs::ResilienceEvent;

/// Per-event recovery totals for one run (a snapshot() diff). Embedded in
/// CholeskyResult / DistCholeskyResult / ExecResult.
using RecoveryStats = obs::ResilienceCounters;

/// How the executor retries tasks that fail with ptlr::TransientError.
struct RetryPolicy {
  int max_retries = 3;   ///< attempts beyond the first; 0 disables recovery
  long long backoff_us = 50;  ///< sleep before retry r is backoff_us << r
};

/// What the Cholesky driver does when blocked POTRF reports a non-positive
/// pivot (ptlr::NumericalError with the global pivot index).
struct BreakdownPolicy {
  enum class Action {
    kFail,             ///< propagate the NumericalError (default)
    kShiftAndRestart,  ///< add a diagonal shift and refactorize
  };
  Action action = Action::kFail;
  /// Initial diagonal shift. 0 = automatic: scaled from the mean |diagonal|
  /// of the input matrix.
  double shift = 0.0;
  /// Multiplier applied to the shift after each failed restart.
  double growth = 10.0;
  /// Restarts before giving up and propagating the breakdown.
  int max_restarts = 3;
};

/// Record one recovery event: always counts into the process-global
/// registry (read via snapshot()/diff()), and additionally emits an obs
/// trace instant-event + counter when obs::enabled(). `detail` is free-form
/// context for the trace ("task trsm(3,1)", "pivot 417").
void note(ResilienceEvent ev, const std::string& detail = {});

/// Current totals of the always-on registry (process lifetime).
RecoveryStats snapshot();

/// after - before, element-wise: the events of one bracketed run.
RecoveryStats diff(const RecoveryStats& before, const RecoveryStats& after);

}  // namespace ptlr::resil
