// Seeded fault injection for the runtime layer.
//
// The paper's premise is hours-long factorizations on thousands of nodes;
// at that scale transient faults are a certainty, not an edge case. This
// injector manufactures them on demand — transient task-body exceptions,
// NaN poisoning of output tiles, simulated tile-allocation failures, and
// dropped/duplicated transport messages — so the recovery machinery
// (executor retry, the socket mesh's retransmission and dedup) is
// exercised deterministically in tests and CI.
//
// Decisions are pure hashes of (seed, site), NOT a shared decision stream:
// the same seed faults the same tasks and the same messages regardless of
// how the schedule interleaves. That makes the injected-fault count
// reproducible run-to-run, which the bitwise-recovery acceptance tests
// rely on. (Contrast with perturb.hpp, whose shared stream deliberately
// lets the race decide.) Faults are transient by construction: only the
// first attempt of a task can fault, so one retry always clears it.
#pragma once

#include <cstdint>
#include <optional>

namespace ptlr::resil {

/// Knobs for one fault-injected run. Default-constructed = disabled.
/// Parsed from PTLR_FAULTS (see from_env).
struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 0;

  /// Probability that a task's first attempt throws ptlr::TransientError
  /// before the body runs (a cosmic-ray-style transient failure).
  double task_exception_probability = 0.04;
  /// Probability that a task's first attempt fails with a simulated
  /// tile-allocation failure (the dynamic-memory-designation allocations
  /// of Section VII-B running out), also a TransientError.
  double alloc_failure_probability = 0.02;
  /// Probability that a task's outputs are poisoned with a NaN after the
  /// body ran — caught by the executor's output scan and retried.
  double poison_probability = 0.03;
  /// Probability that a message's first transmission is suppressed; one
  /// flagged resend is queued in its place (net/peer_mesh.hpp).
  double message_drop_probability = 0.05;
  /// Probability that a message is transmitted twice; receivers dedupe
  /// by envelope id, so duplicates must be harmless.
  double message_duplicate_probability = 0.05;
  /// Probability that one whole rank process is SIGKILLed mid-run (the
  /// rank_kill fault class). Defaults to 0 — whole-process death is only
  /// injected when explicitly asked for (PTLR_FAULTS "kill=<p>"), because
  /// recovering it needs checkpointing + a respawning launcher.
  double rank_kill_probability = 0.0;

  /// Enabled config with the given seed and the default probabilities.
  static FaultConfig with_seed(std::uint64_t s) {
    FaultConfig c;
    c.enabled = true;
    c.seed = s;
    return c;
  }

  /// Reads PTLR_FAULTS from the environment. Unset/empty → disabled.
  /// A bare integer is a seed with the default probabilities; otherwise a
  /// comma-separated key=value list:
  ///   PTLR_FAULTS="seed=7,task=0.05,alloc=0.02,poison=0.03,drop=0.1,dup=0.1"
  /// Unknown keys throw ptlr::Error (typos must not silently disable a
  /// fault class).
  static FaultConfig from_env();

  /// Parse the PTLR_FAULTS syntax from a string (exposed for tests).
  static FaultConfig parse(const char* spec);
};

/// Deterministic per-site fault decisions for one run.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  [[nodiscard]] bool enabled() const { return cfg_.enabled; }

  /// Task-attempt faults. `task` is the stable TaskId; only attempt 0 can
  /// fault (transient by construction). At most one of the three fires
  /// per attempt — callers check in this order.
  [[nodiscard]] bool task_exception(std::uint64_t task, int attempt) const;
  [[nodiscard]] bool alloc_failure(std::uint64_t task, int attempt) const;
  /// Poison decision: nullopt = no fault; otherwise a draw the caller maps
  /// onto an output payload position to overwrite with NaN.
  [[nodiscard]] std::optional<std::uint64_t> poison(std::uint64_t task,
                                                    int attempt) const;

  /// Message faults, keyed by (tag, from, to) so the same message faults
  /// identically in every run with the same seed.
  [[nodiscard]] bool drop_message(std::uint64_t tag, int from, int to) const;
  [[nodiscard]] bool duplicate_message(std::uint64_t tag, int from,
                                       int to) const;

  /// The rank_kill fault class: whether this run kills a rank, and if so
  /// which (victim, k-step) pair. Pure hash of the seed — every rank of
  /// the mesh computes the same plan, and only the victim raises SIGKILL
  /// when it reaches the step. nullopt = no kill this run.
  struct RankKillPlan {
    int victim = 0;
    int step = 0;
  };
  [[nodiscard]] std::optional<RankKillPlan> rank_kill(int nranks,
                                                      int nsteps) const;

 private:
  /// splitmix64 of (seed, site, salt) → uniform in [0, 1).
  [[nodiscard]] double roll(std::uint64_t site, std::uint64_t salt) const;

  FaultConfig cfg_;
};

}  // namespace ptlr::resil
