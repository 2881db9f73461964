// Executor/mailbox watchdog configuration.
//
// A wedged run — a deadlocked mailbox wait, a task body spinning forever —
// is the worst failure mode for a batch job: it burns the allocation and
// reports nothing. The watchdog converts "no progress for too long" into a
// descriptive ptlr::Error carrying a dump of the runtime's state, so the
// hang becomes a diagnosable failure instead of a killed job.
//
// This header holds only the shared knob; the enforcement lives where the
// blocking happens (runtime/executor.cpp spawns a monitor thread over the
// completed-task counter, runtime/mailbox.cpp deadline-checks its waits).
#pragma once

#include <chrono>

#include "common/knobs.hpp"

namespace ptlr::resil {

/// Deadline for "no observable progress" before the watchdog fires.
/// Disabled by default; enable via PTLR_WATCHDOG_MS or programmatically.
struct WatchdogConfig {
  /// Milliseconds without a completed task (executor) or an awaited
  /// message (mailbox) before the stall is converted into an error.
  /// <= 0 disables the watchdog.
  long long deadline_ms = 0;

  [[nodiscard]] bool enabled() const { return deadline_ms > 0; }

  [[nodiscard]] std::chrono::milliseconds deadline() const {
    return std::chrono::milliseconds(deadline_ms);
  }

  /// Reads PTLR_WATCHDOG_MS (common/knobs.hpp); unset or 0 → disabled.
  static WatchdogConfig from_env() {
    return {static_cast<long long>(*knobs::integer("PTLR_WATCHDOG_MS"))};
  }
};

}  // namespace ptlr::resil
