#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

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
// list for reuse by later worker pools) and snapshotting; appends are
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
  Counters::reset();
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

void task_end(const std::string& name, int kind, int panel, int ti, int tj,
              int worker, long long output_bytes) {
  if (!enabled()) return;
  const double t1 = now_seconds();
  const double measured = flops::Counter::thread_flops();
  OpenSpan open = tl_open;
  tl_open = OpenSpan{};
  if (!open.open) open.t0 = t1;  // degenerate span: end without begin
  const int k = open.kind_override != -2 ? open.kind_override : kind;

  Span s;
  s.name = name;
  s.cat = SpanCat::kTask;
  s.kind = k;
  s.panel = panel;
  s.ti = ti;
  s.tj = tj;
  s.worker = worker;
  s.t0 = open.t0;
  s.t1 = t1;
  s.flops = measured;
  s.bytes = output_bytes;
  s.rank_in = open.rank_in;
  s.rank_out = open.rank_out;
  thread_buffer().spans.push_back(std::move(s));

  Counters::record_task(k, measured, output_bytes, open.rank_in,
                        open.rank_out);
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
  Counters::record_comm(bytes);
}

void record_net(NetEvent ev, int from, int to, long long bytes) {
  if (!enabled()) return;
  Span s;
  s.name = ev == NetEvent::kSend        ? "net_send"
           : ev == NetEvent::kRecv      ? "net_recv"
           : ev == NetEvent::kRejoin    ? "net_rejoin"
                                        : "net_retransmit";
  s.cat = SpanCat::kComm;
  s.ti = from;
  s.tj = to;
  s.worker = kNetLaneBase + thread_lane_id();
  s.t0 = s.t1 = now_seconds();
  s.bytes = bytes;
  thread_buffer().spans.push_back(std::move(s));
  // A rejoin is a handshake, not payload traffic: it lands in the trace
  // but not in the msgs/bytes counters.
  if (ev != NetEvent::kRejoin)
    Counters::record_net(bytes, ev != NetEvent::kRecv,
                         ev == NetEvent::kRetransmit);
}

void record_compression(int rank_in, int rank_out) {
  if (!enabled()) return;
  Counters::record_compression(rank_in, rank_out);
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
  Counters::record_resilience(ev);
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

  // Lane names: pid 0 = task execution (one tid per worker), pid 1 = comm.
  sep();
  os << R"(  {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, )"
     << R"("args": {"name": "ptlr tasks"}})";
  sep();
  os << R"(  {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, )"
     << R"("args": {"name": "ptlr comm"}})";
  sep();
  os << R"(  {"name": "process_name", "ph": "M", "pid": 2, "tid": 0, )"
     << R"("args": {"name": "ptlr resilience"}})";

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
    const int pid = s.cat == SpanCat::kComm ? 1 : 0;
    const char* ph = s.cat == SpanCat::kComm ? "i" : "X";
    os << R"(  {"name": ")";
    json_escape(os, s.name);
    os << R"(", "cat": ")" << (s.cat == SpanCat::kComm ? "comm" : "task")
       << R"(", "ph": ")" << ph << R"(", "pid": )" << pid << R"(, "tid": )"
       << s.worker << R"(, "ts": )" << s.t0 * 1e6;
    if (s.cat == SpanCat::kComm) {
      os << R"(, "s": "t")";
    } else {
      os << R"(, "dur": )" << (s.t1 - s.t0) * 1e6;
    }
    os << R"(, "args": {"kind": )" << s.kind << R"(, "kernel": ")"
       << kernel_name(s.kind) << R"(", "panel": )" << s.panel
       << R"(, "i": )" << s.ti << R"(, "j": )" << s.tj << R"(, "flops": )"
       << s.flops << R"(, "bytes": )" << s.bytes << R"(, "rank_in": )"
       << s.rank_in << R"(, "rank_out": )" << s.rank_out << "}}";
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
