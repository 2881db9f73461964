#include "resilience/stats.hpp"

#include <atomic>

#include "obs/trace.hpp"

namespace ptlr::resil {

namespace {

// Always-on registry, separate from obs::Counters (which is gated on the
// obs master switch and zeroed by obs::reset). Drivers bracket a run with
// snapshot()/diff(), so only deltas matter and the registry never resets.
std::atomic<long long>& slot(int i) {
  static std::atomic<long long> counts[obs::kNumResilienceEvents] = {};
  return counts[i];
}

}  // namespace

void note(ResilienceEvent ev, const std::string& detail) {
  const int i = static_cast<int>(ev);
  if (i < 0 || i >= obs::kNumResilienceEvents) return;
  slot(i).fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) obs::record_resilience(ev, detail);
}

RecoveryStats snapshot() {
  RecoveryStats s;
  for (int i = 0; i < obs::kNumResilienceEvents; ++i)
    s.counts[i] = slot(i).load(std::memory_order_relaxed);
  return s;
}

RecoveryStats diff(const RecoveryStats& before, const RecoveryStats& after) {
  RecoveryStats d;
  for (int i = 0; i < obs::kNumResilienceEvents; ++i)
    d.counts[i] = after.counts[i] - before.counts[i];
  return d;
}

}  // namespace ptlr::resil
