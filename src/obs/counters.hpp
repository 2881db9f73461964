// Per-kernel-class counter registry: the aggregation half of the
// observability layer (src/obs).
//
// Aggregates, per Table I kernel class, exactly what the trace spans carry
// individually: task count, measured flops, bytes produced, and the
// min/mean/max of the operand ranks flowing in and out — the numbers
// behind the paper's flop breakdowns and rank-traffic analysis. A separate
// channel counts mailbox messages/bytes and recompressions.
//
// Exactness contract (locked by tests/test_obs.cpp): the per-class flop
// totals are fed from the thread-local flop accumulator the dense kernels
// charge (common/flops.hpp), summed in double precision. For the dense
// kernels — (1)-GEMM/SYRK/TRSM/POTRF — every task of a class charges the
// identical closed-form value, so the class total is bitwise equal to the
// Table I model summed the same way, independent of scheduling order. The
// low-rank kernels are rank-dependent and only admit bounds.
//
// All slots are atomics; recording is wait-free on x86-64 except for the
// double adds and int min/max, which CAS-loop. The registry is active only
// while obs::enabled() — when the master switch is off nothing is ever
// touched and every counter reads zero.
#pragma once

#include <vector>

#include "common/flops.hpp"

namespace ptlr::obs {

/// Aggregated view of one kernel class.
struct KernelCounterRow {
  int kind = -1;            ///< flops::Kernel value; -1 = uncategorized
  long long count = 0;      ///< tasks executed
  double flops = 0.0;       ///< measured flops (thread-exact, double sum)
  long long bytes = 0;      ///< output bytes produced
  /// Rank statistics over the tasks that reported ranks (low-rank
  /// kernels); a class that never reported has rank_tasks == 0 and
  /// min/max/mean of 0.
  long long rank_tasks = 0;
  int rank_in_min = 0, rank_in_max = 0;
  double rank_in_mean = 0.0;
  int rank_out_min = 0, rank_out_max = 0;
  double rank_out_mean = 0.0;
};

/// Communication channel totals (mailbox deposits, self-sends excluded by
/// the caller's convention — the Communicator reports what it counts).
struct CommCounters {
  long long messages = 0;
  long long bytes = 0;
};

/// Wire-level totals of the socket transport (src/net): what actually
/// crossed an OS process boundary, as opposed to the logical mailbox
/// deposits of CommCounters. Retransmits count frames resent by the
/// sender's RTO loop (injected drops being recovered, or slow acks).
struct NetCounters {
  long long msgs_sent = 0;
  long long bytes_sent = 0;
  long long msgs_recv = 0;
  long long bytes_recv = 0;
  long long retransmits = 0;
};

/// Recompression channel totals.
struct CompressionCounters {
  long long count = 0;           ///< recompressions performed
  long long rank_in_sum = 0;     ///< concatenated ranks entering
  long long rank_out_sum = 0;    ///< rounded ranks leaving
  /// Always zero; nothing writes them. Kept only because bench/ptlr_bench
  /// reads them, and they go at the next change to the benchmark.
  long long adaptive = 0;
  long long fallbacks = 0;
  long long sketch_cols_sum = 0;
};

/// Vocabulary of recovery events the resilience layer (src/resilience)
/// reports: injected faults, the recoveries that answered them, and the
/// driver-level policies (shift-and-restart, dense fallback, watchdog).
/// Shared by the trace instant-events and the counter channel so a trace
/// and its counters always agree on names.
enum class ResilienceEvent : int {
  kFaultException = 0,  ///< injected transient task-body exception
  kFaultAlloc,          ///< injected (simulated) tile-allocation failure
  kFaultPoison,         ///< injected NaN poisoning of an output tile
  kMsgDrop,             ///< injected mailbox message drop
  kMsgDup,              ///< injected mailbox message duplication
  kRetry,               ///< task retried after restoring its snapshot
  kTaskRecovered,       ///< retried task completed successfully
  kMsgRecovered,        ///< dropped message retransmitted to a receiver
  kShiftRestart,        ///< diagonal shift applied, factorization restarted
  kDenseFallback,       ///< tile fell back to dense on maxrank overflow
  kWatchdogFire,        ///< watchdog converted a stall into an error
  kCkptWrite,           ///< rank checkpoint written (crash-consistent)
  kCkptLoad,            ///< rank checkpoint loaded after a respawn
  kRankRestart,         ///< this process is a respawned rank (epoch > 0)
};
constexpr int kNumResilienceEvents =
    static_cast<int>(ResilienceEvent::kRankRestart) + 1;

/// Per-event totals of the resilience channel.
struct ResilienceCounters {
  long long counts[kNumResilienceEvents] = {};
  [[nodiscard]] long long of(ResilienceEvent ev) const {
    return counts[static_cast<int>(ev)];
  }
  [[nodiscard]] long long total() const {
    long long t = 0;
    for (const long long c : counts) t += c;
    return t;
  }
};

/// Process-wide registry; all methods are static and thread-safe.
class Counters {
 public:
  /// Slots: one per Table I kernel plus one uncategorized (-1) slot.
  static constexpr int kSlots = flops::kNumKernels + 1;

  /// Charge one executed task to class `kind` (-1 or out-of-range goes to
  /// the uncategorized slot). `rank_in`/`rank_out` of -1 mean "kernel did
  /// not report ranks" and leave the rank statistics untouched.
  static void record_task(int kind, double flops, long long bytes,
                          int rank_in, int rank_out) noexcept;

  static void record_comm(long long bytes) noexcept;
  /// Charge one wire frame: `sent` distinguishes the send and receive
  /// sides; `retransmit` marks an RTO resend (counted on the send side).
  static void record_net(long long bytes, bool sent, bool retransmit) noexcept;
  static void record_compression(int rank_in, int rank_out) noexcept;
  static void record_resilience(ResilienceEvent ev) noexcept;

  /// Rows of every class with at least one recorded task, ordered by kind
  /// (uncategorized last).
  static std::vector<KernelCounterRow> kernel_rows();

  /// One class's row (zeros if nothing recorded). `kind` -1 reads the
  /// uncategorized slot.
  static KernelCounterRow row(int kind);

  static CommCounters comm();
  static NetCounters net();
  static CompressionCounters compressions();
  static ResilienceCounters resilience();

  /// Sum of measured flops over every class.
  static double total_flops();

  /// Zero everything.
  static void reset() noexcept;
};

/// Short name of a kernel class ("(1)-POTRF", ..., "other" for -1 or
/// out-of-range values), matching the Table I labels.
const char* kernel_name(int kind) noexcept;

/// Short snake_case name of a resilience event ("fault_exception", ...,
/// "watchdog_fire"), used as the trace instant-event name and the counter
/// key in counters_json().
const char* resilience_event_name(ResilienceEvent ev) noexcept;

/// Human-readable ASCII table of the kernel rows + comm/compression lines
/// (Table-I style artifact; empty string when nothing was recorded).
std::string counters_ascii();

/// The same snapshot as a JSON object string.
std::string counters_json();

}  // namespace ptlr::obs
