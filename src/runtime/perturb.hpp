// Schedule perturbation ("chaos mode") for the runtime layer.
//
// Interleaving-dependent bugs — races, lost wakeups, schedule-dependent
// numerical divergence — hide behind the executor's usual schedule and
// the mailbox's FIFO delivery. PerturbConfig injects seeded adversarial
// decisions at the work-stealing engine's own decision points (which end
// of a band a pop takes, where a steal scan starts, whether an inline
// chain breaks, forced priority inversions, random worker stalls) and
// delays message delivery, so any existing test can be replayed across N
// seeded schedules. A failing seed reproduces the same *stream* of
// perturbation decisions, which in practice re-triggers the same class
// of interleaving; on one worker every draw happens in program order, so
// a seed replays the exact task order.
#pragma once

#include <atomic>
#include <cstdint>

namespace ptlr::rt {

/// Knobs for one perturbed run. Default-constructed = disabled, i.e. the
/// executor/mailbox behave exactly as the unperturbed deterministic code.
struct PerturbConfig {
  bool enabled = false;
  std::uint64_t seed = 0;

  /// Probability that a worker stalls (sleeps) before running a task and
  /// again before releasing its successors, widening the window for
  /// releases to race with steals/wakeups.
  double stall_probability = 0.15;
  int max_stall_us = 200;  ///< stall duration drawn uniformly in [0, max]

  /// Probability that a released or seeded task is filed in a uniformly
  /// random priority band instead of its own — a forced priority
  /// inversion — and that a run-on-finisher chain breaks at a hop.
  double inversion_probability = 0.25;

  /// Probability that a mailbox deposit is delayed before it becomes
  /// visible, reordering otherwise-FIFO message arrival across tags.
  double delivery_delay_probability = 0.10;
  int max_delivery_delay_us = 100;

  /// Enabled config with the given seed and the default probabilities.
  static PerturbConfig with_seed(std::uint64_t s) {
    PerturbConfig c;
    c.enabled = true;
    c.seed = s;
    return c;
  }

  /// Reads PTLR_PERTURB_SEED from the environment: unset/empty returns a
  /// disabled config, otherwise an enabled one seeded with its value.
  /// Lets any test binary be replayed under a failing seed without a
  /// recompile: PTLR_PERTURB_SEED=7 ./test_runtime. A value that is not
  /// entirely an unsigned 64-bit decimal throws ptlr::Error naming the
  /// variable.
  static PerturbConfig from_env();
};

/// Thread-safe deterministic decision stream for one perturbed run.
///
/// Draws are produced by hashing a seeded atomic counter (splitmix64), so
/// concurrent workers share one stream without locking and a given seed
/// always yields the same decision sequence (the *assignment* of decisions
/// to workers still depends on the race being provoked — that is the
/// point).
class Perturber {
 public:
  explicit Perturber(const PerturbConfig& cfg) : cfg_(cfg), state_(cfg.seed) {}

  [[nodiscard]] const PerturbConfig& config() const { return cfg_; }
  [[nodiscard]] bool enabled() const { return cfg_.enabled; }

  /// True with probability `p` (always false when disabled).
  bool decide(double p);

  /// Uniform draw in [0, 1).
  double uniform();

  /// Uniform integer in [0, n) for n >= 1.
  std::uint64_t below(std::uint64_t n);

  /// Sleep for a random stall if the stall coin comes up.
  void maybe_stall();

  /// Sleep for a random delivery delay if the delay coin comes up.
  void maybe_delay_delivery();

 private:
  std::uint64_t next();

  PerturbConfig cfg_;
  std::atomic<std::uint64_t> state_;
};

}  // namespace ptlr::rt
