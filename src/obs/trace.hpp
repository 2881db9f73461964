// Structured runtime tracing: the recording half of the observability
// layer (src/obs).
//
// Every headline figure of the paper is an observation of the runtime —
// task timelines (Figs. 9, 11), per-kernel-class flop breakdowns (Table I,
// Fig. 10), rank traffic through the hcore kernels (Fig. 1). This recorder
// keeps ONE record of each observed event, the Span:
//
//   * one span per executed task, holding the task name and id, tile
//     coordinates, kernel class, worker lane, global steady-clock
//     interval, the flops the task actually charged, the operand ranks
//     in/out reported by the hcore kernels, and the executor's
//     happens-before stamps;
//   * one span per simulated task of the virtual cluster (runtime/
//     simulator.hpp), on simulated seconds, with its virtual process;
//   * communication events from the socket transport (a "send" per
//     logical message, net_* per wire frame), and recovery events from the
//     resilience layer;
//   * run-level metadata set by the drivers (problem size, BAND_SIZE,
//     thread count, accuracy).
//
// Every execute() and simulate() call that records takes a run id, so one
// run's spans can be selected (run_spans) even when several runs share the
// process. The counters (counters.hpp), the critical path, panel release
// and kind breakdown (report.hpp) are reductions over these spans; nothing
// else is stored.
//
// Recording is lock-free on the hot path: each recording thread owns a
// registered buffer and appends without synchronization; the registry
// mutex is taken only at thread registration/retirement and at read
// time. Reading while tasks are in flight is a data race by contract —
// drivers read after the worker pool has joined.
//
// The master switch is off by default and every hook compiles to a single
// relaxed atomic load when disabled, so an untraced run pays nothing.
// enable_from_env / write_chrome_trace_from_env read PTLR_TRACE=1 and
// PTLR_TRACE_FILE (default ptlr_trace.json); see docs/observability.md.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "obs/counters.hpp"

namespace ptlr::obs {

/// What a span describes; becomes the "cat" field of the Chrome event.
enum class SpanCat : int {
  kTask = 0,   ///< an executed task body (executor lane, pid 0)
  kComm = 1,   ///< a mailbox message deposit (rank lane, pid 1)
  kResil = 2,  ///< a recovery event (resilience lane, pid 2)
  kSim = 3,    ///< a simulated task (pid kSimPidBase + its process)
};

/// Chrome pid of simulated process 0; process p writes to kSimPidBase + p,
/// clear of the task, comm and resilience pids.
constexpr int kSimPidBase = 3;

/// One recorded event.
struct Span {
  std::string name;    ///< task name, e.g. "gemm(5,3,1)", or "send"
  std::string detail;  ///< free-form detail (resilience events only)
  SpanCat cat = SpanCat::kTask;
  int kind = -1;       ///< kernel class (flops::Kernel value; -1 = other)
  int panel = -1;      ///< Cholesky panel index k
  int ti = -1, tj = -1;  ///< tile coordinates (comm: from/to ranks)
  int worker = 0;      ///< worker/core id (tasks) or source rank (comm)
  int run = -1;        ///< execute()/simulate() call; -1 for comm/resil
  int task = -1;       ///< task id in that run's graph
  int proc = 0;        ///< simulated process (0 in real runs)
  /// The executor's logical happens-before stamps, drawn from one per-run
  /// atomic counter: seq0 before the first attempt, seq1 after the last.
  /// A dependency t -> s executed correctly iff t.seq1 < s.seq0; unlike
  /// t0/t1 they cannot alias under a coarse clock. -1 in simulated spans.
  long long seq0 = -1;
  long long seq1 = -1;
  double t0 = 0.0;     ///< seconds on the process-global steady clock
  double t1 = 0.0;     ///< (simulated seconds for SpanCat::kSim)
  double flops = 0.0;  ///< flops charged by this task's kernels (measured)
  long long bytes = 0; ///< output/payload bytes
  int rank_in = -1;    ///< max operand rank entering the kernel (-1: n/a)
  int rank_out = -1;   ///< output rank leaving the kernel (-1: n/a)
};

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Master switch for the whole observability layer (tracing + counters).
/// A relaxed load — this is the only cost instrumentation pays when off.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flip the master switch programmatically (tests, tools).
void enable(bool on);

/// enable(true) iff PTLR_TRACE asks for it; returns the resulting state.
bool enable_from_env();

/// Seconds on the process-global steady clock (epoch = first use). All
/// span timestamps share this timebase, so spans from successive runs in
/// one process are globally ordered and survive wall-clock adjustments.
double now_seconds();

/// Drop every recorded span and metadata entry (and so every counter).
/// Callers must be quiesced (no worker pool running).
void reset();

/// A fresh run id for one execute() or simulate() call that records.
/// Ids are unique for the life of the process (reset() keeps counting).
int begin_run();

// -------------------------------------------------------------- recording
// The executor wraps each task body in task_begin()/task_end(). Between
// the two, layers below may annotate the open span (actual kernel class
// from hcore dispatch, operand ranks); annotations are thread-local, so
// they need no plumbing through the task-graph bodies.
//
// Nested child tasks (runtime/nested.hpp) open no spans of their own —
// the parent's span covers the whole fork/join scope. This keeps span
// flop attribution exact under nesting by construction: flop models are
// charged at the public dense:: entry points, which always execute on the
// parent's thread (children run only the uncharged internal bodies), so
// the parent's thread-local accumulator sees every flop of the kernel no
// matter which workers the children land on, and a retried parent re-opens
// its span exactly as before.

/// Open a span on this thread: stamps t0 and zeroes the thread-local flop
/// accumulator. No-op when disabled.
void task_begin();

/// Override the kernel class of the open span with the kernel the hcore
/// dispatch actually selected. No-op when disabled or no span is open.
void annotate_kernel(int kind) noexcept;

/// Report operand ranks of the open span: `rank_in` entering the kernel,
/// `rank_out` of the (low-rank) output, -1 for not-applicable. No-op when
/// disabled or no span is open.
void annotate_ranks(int rank_in, int rank_out) noexcept;

/// Close the span: stamps t1, reads the thread-local flop delta, merges
/// the annotations and appends `s` to this thread's buffer. The caller
/// fills the task's identity (name, declared kind, panel, tile, worker,
/// bytes, run, task, seq stamps); an annotate_kernel class wins over the
/// declared kind. No-op when disabled.
void task_end(Span s);

/// Append a finished span as is (the simulator's task spans). No-op when
/// disabled.
void record(Span s);

/// Record a mailbox deposit `from -> to` of `bytes` payload bytes: an
/// instant comm span named "send". No-op when disabled.
void record_comm(int from, int to, long long bytes);

/// What a wire-level frame event describes (src/net socket transport).
enum class NetEvent : int { kSend = 0, kRecv, kRetransmit, kRejoin };

/// Span name of a wire event: "net_send", "net_recv", "net_retransmit",
/// "net_rejoin".
const char* net_event_name(NetEvent ev) noexcept;

/// Record one wire frame `from -> to` of `bytes` payload crossing a real
/// socket: an instant comm-lane span named net_event_name(ev). No-op when
/// disabled.
void record_net(NetEvent ev, int from, int to, long long bytes);

/// Record one recovery event (counters.hpp vocabulary): an instant span in
/// the resilience lane (pid 2, one tid per recording thread so lane
/// timestamps stay monotone) whose kind is the event. `detail`
/// is free-form context ("task trsm(3,1) attempt 1", "tag 0x4...").
/// Drivers should prefer resil::note() (src/resilience), which also feeds
/// the always-on RecoveryStats; this hook is the obs half. No-op when
/// disabled.
void record_resilience(ResilienceEvent ev, const std::string& detail);

// -------------------------------------------------------------- metadata

/// Attach a run-level key/value (problem size, BAND_SIZE, accuracy...);
/// written into the trace header's "run" metadata event. Unlike spans this
/// records even when the master switch is off — it is driver-level, not
/// hot-path.
void set_metadata(const std::string& key, const std::string& value);

// ---------------------------------------------------------------- output

/// Copy of every span recorded so far, across all registered threads, in
/// per-thread recording order. Callers must be quiesced.
std::vector<Span> snapshot_spans();

/// Copy of the spans of run `run` (ExecResult::run, SimResult::run),
/// ordered by task id. Callers must be quiesced.
std::vector<Span> run_spans(int run);

namespace detail {
/// Call `f` on every recorded span under the registry mutex, without
/// copying (the counters' reductions). Callers must be quiesced.
void for_each_span(const std::function<void(const Span&)>& f);
}  // namespace detail

/// Serialize all recorded spans + metadata as Chrome trace_event JSON
/// (object form, "traceEvents" array; load at chrome://tracing or
/// https://ui.perfetto.dev): executed tasks in pid 0, comm in pid 1,
/// resilience in pid 2, simulated process p in pid kSimPidBase + p. Only
/// the pids written get a process_name. Throws ptlr::Error on I/O failure.
void write_chrome_trace(const std::string& path);

/// write_chrome_trace(PTLR_TRACE_FILE) iff PTLR_TRACE is on.
/// Returns the path written, or an empty string if tracing is off.
std::string write_chrome_trace_from_env();

/// Write `content` to `path` (reporter JSON artifacts next to the trace).
/// Throws ptlr::Error on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace ptlr::obs
