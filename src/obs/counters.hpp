// Per-kernel-class counters: the aggregation half of the observability
// layer (src/obs).
//
// Every value here is a reduction of the spans the recorder (trace.hpp)
// keeps, computed on read under the registry mutex; there is no second
// store. Per Table I kernel class: task count, measured flops, bytes
// produced, and the min/mean/max of the operand ranks flowing in and out
// — the numbers behind the paper's flop breakdowns and rank-traffic
// analysis — from the executed-task spans. Logical messages come from the
// "send" spans, wire frames from the net_* spans, recovery events from the
// resilience spans, and recompressions from the (5)/(6)-GEMM task spans
// (each compresses its tile once and reports the ranks in and out).
//
// Exactness contract (locked by tests/test_obs.cpp): a span's flops are
// the thread-local flop accumulator the dense kernels charge
// (common/flops.hpp), and a class total sums them in double precision.
// For the dense kernels — (1)-GEMM/SYRK/TRSM/POTRF — every task of a class
// charges the identical closed-form value, so the class total is bitwise
// equal to the Table I model summed the same way, in any span order. The
// low-rank kernels are rank-dependent and only admit bounds.
//
// Spans are recorded only while obs::enabled(), so with the master switch
// off every counter reads zero. Reads share snapshot_spans()' contract:
// the caller is quiesced (no worker pool running).
#pragma once

#include <string>
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

/// Logical message totals: one per message a rank sends to another
/// (self-sends, retransmissions and injected duplicates excluded). The
/// socket transport counts its own sends this way (SocketTransport::stats).
struct CommCounters {
  long long messages = 0;
  long long bytes = 0;
};

/// Wire-level totals of the socket transport (src/net): what actually
/// crossed a socket, as opposed to the logical messages of CommCounters.
/// Retransmits count MSG frames written again: an injected drop's one
/// resend and a rejoin's replay of unacked or logged frames. Nothing else
/// is resent, so a fault-free run reports 0.
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
  kMsgDrop,             ///< injected message drop
  kMsgDup,              ///< injected message duplication
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

/// Per-event totals of the resilience channel: what obs::Counters reduces
/// from the recorded spans, and (as resil::RecoveryStats) what the drivers
/// embed in their results from the always-on registry.
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

  // Named accessors for the common questions.
  [[nodiscard]] long long faults_injected() const {
    return of(ResilienceEvent::kFaultException) +
           of(ResilienceEvent::kFaultAlloc) + of(ResilienceEvent::kFaultPoison);
  }
  [[nodiscard]] long long retries() const {
    return of(ResilienceEvent::kRetry);
  }
  [[nodiscard]] long long tasks_recovered() const {
    return of(ResilienceEvent::kTaskRecovered);
  }
  [[nodiscard]] long long messages_dropped() const {
    return of(ResilienceEvent::kMsgDrop);
  }
  [[nodiscard]] long long messages_duplicated() const {
    return of(ResilienceEvent::kMsgDup);
  }
  [[nodiscard]] long long messages_recovered() const {
    return of(ResilienceEvent::kMsgRecovered);
  }
  [[nodiscard]] long long shifts() const {
    return of(ResilienceEvent::kShiftRestart);
  }
  [[nodiscard]] long long dense_fallbacks() const {
    return of(ResilienceEvent::kDenseFallback);
  }
  [[nodiscard]] long long watchdog_fires() const {
    return of(ResilienceEvent::kWatchdogFire);
  }
  [[nodiscard]] long long checkpoint_writes() const {
    return of(ResilienceEvent::kCkptWrite);
  }
  [[nodiscard]] long long checkpoint_loads() const {
    return of(ResilienceEvent::kCkptLoad);
  }
  [[nodiscard]] long long rank_restarts() const {
    return of(ResilienceEvent::kRankRestart);
  }

  /// One line per nonzero event ("retry=3 task_recovered=3"); empty string
  /// when nothing happened.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const ResilienceCounters&) const = default;
};

/// Reductions over every span recorded in this process (all runs since
/// the last reset). All methods are static; callers must be quiesced.
class Counters {
 public:
  /// Rows of every class with at least one executed task, ordered by kind
  /// (uncategorized last). A task span of kind -1 or out of range counts
  /// as uncategorized; ranks of -1 mean "kernel did not report ranks".
  static std::vector<KernelCounterRow> kernel_rows();

  /// One class's row (zeros if nothing recorded). `kind` -1 reads the
  /// uncategorized row.
  static KernelCounterRow row(int kind);

  /// Logical messages sent ("send" spans).
  static CommCounters comm();
  /// Wire frames (net_* spans); a retransmit counts as a frame sent, and a
  /// rejoin handshake is not payload traffic.
  static NetCounters net();
  static CompressionCounters compressions();
  static ResilienceCounters resilience();

  /// Sum of measured flops over every class.
  static double total_flops();

  /// Zero everything: obs::reset(), since every counter is a reduction of
  /// the recorded spans.
  static void reset();
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
