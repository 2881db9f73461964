#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "common/error.hpp"
#include "common/knobs.hpp"
#include "obs/counters.hpp"

namespace ptlr::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

// ------------------------------------------------------- span registry --
// Each recording thread owns one SpanBuffer. The registry mutex guards
// only registration, retirement (thread exit returns the buffer to a free
// list for reuse by later worker pools) and reading; appends are
// unsynchronized on the owning thread.

struct SpanBuffer {
  std::vector<Span> spans;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  std::vector<SpanBuffer*> free_list;
  std::map<std::string, std::string> metadata;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: threads may outlive exit
  return *r;
}

// Releases the thread's buffer back to the free list at thread exit.
struct BufferLease {
  SpanBuffer* buf = nullptr;
  ~BufferLease() {
    if (buf == nullptr) return;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.free_list.push_back(buf);
  }
};

SpanBuffer& thread_buffer() {
  thread_local BufferLease lease;
  if (lease.buf == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (!r.free_list.empty()) {
      lease.buf = r.free_list.back();
      r.free_list.pop_back();
    } else {
      r.buffers.push_back(std::make_unique<SpanBuffer>());
      lease.buf = r.buffers.back().get();
    }
  }
  return *lease.buf;
}

// --------------------------------------------------- open-span tracking --
// The executor brackets task bodies with task_begin/task_end; hcore
// kernels annotate the open span in between without any plumbing.

struct OpenSpan {
  bool open = false;
  double t0 = 0.0;
  int kind_override = -2;  ///< -2 = no override (kind -1 is meaningful)
  int rank_in = -1;
  int rank_out = -1;
};

thread_local OpenSpan tl_open;

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

void json_escape(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

void enable(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

bool enable_from_env() {
  if (knobs::flag("PTLR_TRACE")) enable(true);
  return enabled();
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       process_epoch())
      .count();
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& b : r.buffers) b->spans.clear();
  r.metadata.clear();
}

int begin_run() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void task_begin() {
  if (!enabled()) return;
  tl_open = OpenSpan{};
  tl_open.open = true;
  flops::Counter::reset_thread_flops();
  tl_open.t0 = now_seconds();
}

void annotate_kernel(int kind) noexcept {
  if (!enabled() || !tl_open.open) return;
  tl_open.kind_override = kind;
}

void annotate_ranks(int rank_in, int rank_out) noexcept {
  if (!enabled() || !tl_open.open) return;
  tl_open.rank_in = rank_in;
  tl_open.rank_out = rank_out;
}

void task_end(Span s) {
  if (!enabled()) return;
  const double t1 = now_seconds();
  const double measured = flops::Counter::thread_flops();
  OpenSpan open = tl_open;
  tl_open = OpenSpan{};
  if (!open.open) open.t0 = t1;  // degenerate span: end without begin
  if (open.kind_override != -2) s.kind = open.kind_override;
  s.cat = SpanCat::kTask;
  s.t0 = open.t0;
  s.t1 = t1;
  s.flops = measured;
  s.rank_in = open.rank_in;
  s.rank_out = open.rank_out;
  thread_buffer().spans.push_back(std::move(s));
}

void record(Span s) {
  if (!enabled()) return;
  thread_buffer().spans.push_back(std::move(s));
}

namespace {

// Stable per-thread lane id: spans within one thread's buffer are appended
// in timestamp order, so giving each recording thread its own tid keeps
// every (pid, tid) lane monotone — the invariant tools/check_trace.py
// enforces. Used by the resilience pid and the wire-event lanes.
int thread_lane_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Wire events (net_send/net_recv/net_retransmit) are recorded by the mesh
// session threads — several per process — so they cannot share the
// per-rank comm lanes (tid = rank) without breaking lane monotonicity.
// They get tids in a disjoint block instead; from/to still travel in the
// event args.
constexpr int kNetLaneBase = 1000;

int chrome_pid(const Span& s) {
  switch (s.cat) {
    case SpanCat::kComm: return 1;
    case SpanCat::kResil: return 2;
    case SpanCat::kSim: return kSimPidBase + s.proc;
    case SpanCat::kTask: break;
  }
  return 0;
}

}  // namespace

void record_comm(int from, int to, long long bytes) {
  if (!enabled()) return;
  Span s;
  s.name = "send";
  s.cat = SpanCat::kComm;
  s.ti = from;
  s.tj = to;
  s.worker = from;
  s.t0 = s.t1 = now_seconds();
  s.bytes = bytes;
  thread_buffer().spans.push_back(std::move(s));
}

const char* net_event_name(NetEvent ev) noexcept {
  switch (ev) {
    case NetEvent::kSend: return "net_send";
    case NetEvent::kRecv: return "net_recv";
    case NetEvent::kRetransmit: return "net_retransmit";
    case NetEvent::kRejoin: return "net_rejoin";
  }
  return "net_unknown";
}

void record_net(NetEvent ev, int from, int to, long long bytes) {
  if (!enabled()) return;
  Span s;
  s.name = net_event_name(ev);
  s.cat = SpanCat::kComm;
  s.ti = from;
  s.tj = to;
  s.worker = kNetLaneBase + thread_lane_id();
  s.t0 = s.t1 = now_seconds();
  s.bytes = bytes;
  thread_buffer().spans.push_back(std::move(s));
}

void record_resilience(ResilienceEvent ev, const std::string& detail) {
  if (!enabled()) return;
  Span s;
  s.name = resilience_event_name(ev);
  s.detail = detail;
  s.cat = SpanCat::kResil;
  s.kind = static_cast<int>(ev);
  s.worker = thread_lane_id();
  s.t0 = s.t1 = now_seconds();
  thread_buffer().spans.push_back(std::move(s));
}

void set_metadata(const std::string& key, const std::string& value) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.metadata[key] = value;
}

std::vector<Span> snapshot_spans() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<Span> out;
  for (const auto& b : r.buffers)
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

std::vector<Span> run_spans(int run) {
  std::vector<Span> out;
  if (run < 0) return out;
  detail::for_each_span([&](const Span& s) {
    if (s.run == run) out.push_back(s);
  });
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.task < b.task; });
  return out;
}

void detail::for_each_span(const std::function<void(const Span&)>& f) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.buffers)
    for (const Span& s : b->spans) f(s);
}

void write_chrome_trace(const std::string& path) {
  // Several threads can record into one lane (a distributed rank's worker
  // and its receive thread both send in the rank's comm lane), so write in
  // start-time order: every (pid, tid) lane is then monotone.
  std::vector<Span> spans = snapshot_spans();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) { return a.t0 < b.t0; });
  std::map<std::string, std::string> meta;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    meta = r.metadata;
  }

  std::ofstream os(path);
  PTLR_CHECK(os.good(), "cannot open trace file: " + path);
  os.precision(17);  // timestamps/flops round-trip exactly
  os << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Run metadata as one global instant event at ts 0 so viewers and the
  // schema checker see the run parameters without a side channel.
  if (!meta.empty()) {
    sep();
    os << R"(  {"name": "run_metadata", "cat": "meta", "ph": "i", )"
       << R"("s": "g", "pid": 0, "tid": 0, "ts": 0, "args": {)";
    bool mfirst = true;
    for (const auto& [k, v] : meta) {
      if (!mfirst) os << ", ";
      mfirst = false;
      os << '"';
      json_escape(os, k);
      os << "\": \"";
      json_escape(os, v);
      os << '"';
    }
    os << "}}";
  }

  // Lane names for the pids written: 0 = task execution (one tid per
  // worker), 1 = comm, 2 = resilience, kSimPidBase + p = simulated
  // process p (one tid per virtual core).
  std::set<int> pids;
  if (!meta.empty()) pids.insert(0);
  for (const Span& s : spans) pids.insert(chrome_pid(s));
  for (const int pid : pids) {
    sep();
    os << R"(  {"name": "process_name", "ph": "M", "pid": )" << pid
       << R"(, "tid": 0, "args": {"name": ")";
    if (pid >= kSimPidBase)
      os << "sim process " << pid - kSimPidBase;
    else
      os << (pid == 0 ? "ptlr tasks" : pid == 1 ? "ptlr comm"
                                                : "ptlr resilience");
    os << "\"}}";
  }

  for (const Span& s : spans) {
    sep();
    if (s.cat == SpanCat::kResil) {
      // Recovery instant-event: the "event" arg repeats the canonical name
      // so tooling need not parse the display name.
      os << R"(  {"name": ")";
      json_escape(os, s.name);
      os << R"(", "cat": "resilience", "ph": "i", "s": "t", "pid": 2, )"
         << R"("tid": )" << s.worker << R"(, "ts": )" << s.t0 * 1e6
         << R"(, "args": {"event": ")";
      json_escape(os, s.name);
      os << R"(", "detail": ")";
      json_escape(os, s.detail);
      os << R"("}})";
      continue;
    }
    const char* ph = s.cat == SpanCat::kComm ? "i" : "X";
    const char* cat = s.cat == SpanCat::kComm  ? "comm"
                      : s.cat == SpanCat::kSim ? "sim"
                                               : "task";
    os << R"(  {"name": ")";
    json_escape(os, s.name);
    os << R"(", "cat": ")" << cat << R"(", "ph": ")" << ph
       << R"(", "pid": )" << chrome_pid(s) << R"(, "tid": )" << s.worker
       << R"(, "ts": )" << s.t0 * 1e6;
    if (s.cat == SpanCat::kComm) {
      os << R"(, "s": "t")";
    } else {
      os << R"(, "dur": )" << (s.t1 - s.t0) * 1e6;
    }
    os << R"(, "args": {"kind": )" << s.kind << R"(, "kernel": ")"
       << kernel_name(s.kind) << R"(", "panel": )" << s.panel
       << R"(, "i": )" << s.ti << R"(, "j": )" << s.tj << R"(, "flops": )"
       << s.flops << R"(, "bytes": )" << s.bytes << R"(, "rank_in": )"
       << s.rank_in << R"(, "rank_out": )" << s.rank_out;
    if (s.run >= 0)
      os << R"(, "run": )" << s.run << R"(, "task": )" << s.task;
    if (s.cat == SpanCat::kSim) os << R"(, "proc": )" << s.proc;
    os << "}}";
  }
  os << "\n]}\n";
  PTLR_CHECK(os.good(), "failed writing trace file: " + path);
}

std::string write_chrome_trace_from_env() {
  if (!knobs::flag("PTLR_TRACE")) return {};
  const std::string path = knobs::text("PTLR_TRACE_FILE");
  write_chrome_trace(path);
  return path;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  PTLR_CHECK(os.good(), "cannot open file: " + path);
  os << content;
  PTLR_CHECK(os.good(), "failed writing file: " + path);
}

}  // namespace ptlr::obs
