#include "obs/counters.hpp"

#include <atomic>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "common/table.hpp"

namespace ptlr::obs {

namespace {

// CAS-loop double accumulation: addends of a given kernel class are all
// equal for the dense kernels, so the class total is independent of the
// interleaving — the property the bitwise-exactness tests rely on.
void atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<int>& a, int v) noexcept {
  int cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<int>& a, int v) noexcept {
  int cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

struct Slot {
  std::atomic<long long> count{0};
  std::atomic<double> flops{0.0};
  std::atomic<long long> bytes{0};
  std::atomic<long long> rank_tasks{0};
  std::atomic<long long> rank_in_sum{0};
  std::atomic<long long> rank_out_sum{0};
  std::atomic<int> rank_in_min{std::numeric_limits<int>::max()};
  std::atomic<int> rank_in_max{std::numeric_limits<int>::min()};
  std::atomic<int> rank_out_min{std::numeric_limits<int>::max()};
  std::atomic<int> rank_out_max{std::numeric_limits<int>::min()};

  void clear() noexcept {
    count.store(0, std::memory_order_relaxed);
    flops.store(0.0, std::memory_order_relaxed);
    bytes.store(0, std::memory_order_relaxed);
    rank_tasks.store(0, std::memory_order_relaxed);
    rank_in_sum.store(0, std::memory_order_relaxed);
    rank_out_sum.store(0, std::memory_order_relaxed);
    rank_in_min.store(std::numeric_limits<int>::max(),
                      std::memory_order_relaxed);
    rank_in_max.store(std::numeric_limits<int>::min(),
                      std::memory_order_relaxed);
    rank_out_min.store(std::numeric_limits<int>::max(),
                       std::memory_order_relaxed);
    rank_out_max.store(std::numeric_limits<int>::min(),
                       std::memory_order_relaxed);
  }
};

struct State {
  Slot slots[Counters::kSlots];  // [0..kNumKernels-1] classes, last = other
  std::atomic<long long> comm_messages{0};
  std::atomic<long long> comm_bytes{0};
  std::atomic<long long> net_msgs_sent{0};
  std::atomic<long long> net_bytes_sent{0};
  std::atomic<long long> net_msgs_recv{0};
  std::atomic<long long> net_bytes_recv{0};
  std::atomic<long long> net_retransmits{0};
  std::atomic<long long> compress_count{0};
  std::atomic<long long> compress_rank_in{0};
  std::atomic<long long> compress_rank_out{0};
  std::atomic<long long> resilience[kNumResilienceEvents] = {};
};

State& state() {
  static State* s = new State();  // leaked: threads may outlive exit
  return *s;
}

int slot_index(int kind) noexcept {
  return kind >= 0 && kind < flops::kNumKernels ? kind
                                                : flops::kNumKernels;
}

KernelCounterRow read_row(int kind) {
  const Slot& s = state().slots[slot_index(kind)];
  KernelCounterRow r;
  r.kind = kind >= 0 && kind < flops::kNumKernels ? kind : -1;
  r.count = s.count.load(std::memory_order_relaxed);
  r.flops = s.flops.load(std::memory_order_relaxed);
  r.bytes = s.bytes.load(std::memory_order_relaxed);
  r.rank_tasks = s.rank_tasks.load(std::memory_order_relaxed);
  if (r.rank_tasks > 0) {
    const double n = static_cast<double>(r.rank_tasks);
    r.rank_in_min = s.rank_in_min.load(std::memory_order_relaxed);
    r.rank_in_max = s.rank_in_max.load(std::memory_order_relaxed);
    r.rank_in_mean =
        static_cast<double>(s.rank_in_sum.load(std::memory_order_relaxed)) /
        n;
    r.rank_out_min = s.rank_out_min.load(std::memory_order_relaxed);
    r.rank_out_max = s.rank_out_max.load(std::memory_order_relaxed);
    r.rank_out_mean =
        static_cast<double>(s.rank_out_sum.load(std::memory_order_relaxed)) /
        n;
  }
  return r;
}

}  // namespace

void Counters::record_task(int kind, double flops, long long bytes,
                           int rank_in, int rank_out) noexcept {
  Slot& s = state().slots[slot_index(kind)];
  s.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add(s.flops, flops);
  s.bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (rank_in >= 0 || rank_out >= 0) {
    s.rank_tasks.fetch_add(1, std::memory_order_relaxed);
    const int in = rank_in >= 0 ? rank_in : 0;
    const int out = rank_out >= 0 ? rank_out : 0;
    s.rank_in_sum.fetch_add(in, std::memory_order_relaxed);
    s.rank_out_sum.fetch_add(out, std::memory_order_relaxed);
    atomic_min(s.rank_in_min, in);
    atomic_max(s.rank_in_max, in);
    atomic_min(s.rank_out_min, out);
    atomic_max(s.rank_out_max, out);
  }
}

void Counters::record_comm(long long bytes) noexcept {
  State& s = state();
  s.comm_messages.fetch_add(1, std::memory_order_relaxed);
  s.comm_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void Counters::record_net(long long bytes, bool sent,
                          bool retransmit) noexcept {
  State& s = state();
  if (sent) {
    s.net_msgs_sent.fetch_add(1, std::memory_order_relaxed);
    s.net_bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
    if (retransmit)
      s.net_retransmits.fetch_add(1, std::memory_order_relaxed);
  } else {
    s.net_msgs_recv.fetch_add(1, std::memory_order_relaxed);
    s.net_bytes_recv.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void Counters::record_compression(int rank_in, int rank_out) noexcept {
  State& s = state();
  s.compress_count.fetch_add(1, std::memory_order_relaxed);
  s.compress_rank_in.fetch_add(rank_in, std::memory_order_relaxed);
  s.compress_rank_out.fetch_add(rank_out, std::memory_order_relaxed);
}

void Counters::record_resilience(ResilienceEvent ev) noexcept {
  const int i = static_cast<int>(ev);
  if (i < 0 || i >= kNumResilienceEvents) return;
  state().resilience[i].fetch_add(1, std::memory_order_relaxed);
}

std::vector<KernelCounterRow> Counters::kernel_rows() {
  std::vector<KernelCounterRow> rows;
  for (int k = 0; k < flops::kNumKernels; ++k) {
    KernelCounterRow r = read_row(k);
    if (r.count > 0) rows.push_back(r);
  }
  KernelCounterRow other = read_row(-1);
  if (other.count > 0) rows.push_back(other);
  return rows;
}

KernelCounterRow Counters::row(int kind) { return read_row(kind); }

CommCounters Counters::comm() {
  const State& s = state();
  return {s.comm_messages.load(std::memory_order_relaxed),
          s.comm_bytes.load(std::memory_order_relaxed)};
}

NetCounters Counters::net() {
  const State& s = state();
  return {s.net_msgs_sent.load(std::memory_order_relaxed),
          s.net_bytes_sent.load(std::memory_order_relaxed),
          s.net_msgs_recv.load(std::memory_order_relaxed),
          s.net_bytes_recv.load(std::memory_order_relaxed),
          s.net_retransmits.load(std::memory_order_relaxed)};
}

CompressionCounters Counters::compressions() {
  const State& s = state();
  return {s.compress_count.load(std::memory_order_relaxed),
          s.compress_rank_in.load(std::memory_order_relaxed),
          s.compress_rank_out.load(std::memory_order_relaxed)};
}

ResilienceCounters Counters::resilience() {
  const State& s = state();
  ResilienceCounters r;
  for (int i = 0; i < kNumResilienceEvents; ++i)
    r.counts[i] = s.resilience[i].load(std::memory_order_relaxed);
  return r;
}

double Counters::total_flops() {
  double t = 0.0;
  for (int k = -1; k < flops::kNumKernels; ++k)
    t += read_row(k).flops;
  return t;
}

void Counters::reset() noexcept {
  State& s = state();
  for (Slot& slot : s.slots) slot.clear();
  s.comm_messages.store(0, std::memory_order_relaxed);
  s.comm_bytes.store(0, std::memory_order_relaxed);
  s.net_msgs_sent.store(0, std::memory_order_relaxed);
  s.net_bytes_sent.store(0, std::memory_order_relaxed);
  s.net_msgs_recv.store(0, std::memory_order_relaxed);
  s.net_bytes_recv.store(0, std::memory_order_relaxed);
  s.net_retransmits.store(0, std::memory_order_relaxed);
  s.compress_count.store(0, std::memory_order_relaxed);
  s.compress_rank_in.store(0, std::memory_order_relaxed);
  s.compress_rank_out.store(0, std::memory_order_relaxed);
  for (auto& c : s.resilience) c.store(0, std::memory_order_relaxed);
}

const char* resilience_event_name(ResilienceEvent ev) noexcept {
  switch (ev) {
    case ResilienceEvent::kFaultException: return "fault_exception";
    case ResilienceEvent::kFaultAlloc: return "fault_alloc";
    case ResilienceEvent::kFaultPoison: return "fault_poison";
    case ResilienceEvent::kMsgDrop: return "msg_drop";
    case ResilienceEvent::kMsgDup: return "msg_dup";
    case ResilienceEvent::kRetry: return "retry";
    case ResilienceEvent::kTaskRecovered: return "task_recovered";
    case ResilienceEvent::kMsgRecovered: return "msg_recovered";
    case ResilienceEvent::kShiftRestart: return "shift_restart";
    case ResilienceEvent::kDenseFallback: return "dense_fallback";
    case ResilienceEvent::kWatchdogFire: return "watchdog_fire";
    case ResilienceEvent::kCkptWrite: return "ckpt_write";
    case ResilienceEvent::kCkptLoad: return "ckpt_load";
    case ResilienceEvent::kRankRestart: return "rank_restart";
  }
  return "unknown";
}

const char* kernel_name(int kind) noexcept {
  switch (kind) {
    case 0: return "(1)-POTRF";
    case 1: return "(1)-TRSM";
    case 2: return "(4)-TRSM";
    case 3: return "(1)-SYRK";
    case 4: return "(3)-SYRK";
    case 5: return "(1)-GEMM";
    case 6: return "(2)-GEMM";
    case 7: return "(3)-GEMM";
    case 8: return "(5)-GEMM";
    case 9: return "(6)-GEMM";
    default: return "other";
  }
}

std::string counters_ascii() {
  const auto rows = Counters::kernel_rows();
  const auto cm = Counters::comm();
  const auto cp = Counters::compressions();
  const auto rs = Counters::resilience();
  if (rows.empty() && cm.messages == 0 && cp.count == 0 && rs.total() == 0 &&
      Counters::net().msgs_sent == 0 && Counters::net().msgs_recv == 0)
    return {};

  Table t({"kernel", "count", "gflops", "MB out", "rk-in min/mean/max",
           "rk-out min/mean/max"});
  char buf[64];
  for (const auto& r : rows) {
    t.row().cell(kernel_name(r.kind)).cell(r.count).cell(r.flops / 1e9, 4);
    t.cell(static_cast<double>(r.bytes) / 1e6, 4);
    if (r.rank_tasks > 0) {
      std::snprintf(buf, sizeof buf, "%d/%.1f/%d", r.rank_in_min,
                    r.rank_in_mean, r.rank_in_max);
      t.cell(std::string(buf));
      std::snprintf(buf, sizeof buf, "%d/%.1f/%d", r.rank_out_min,
                    r.rank_out_mean, r.rank_out_max);
      t.cell(std::string(buf));
    } else {
      t.cell("-").cell("-");
    }
  }
  std::ostringstream os;
  t.print(os);
  os << "total measured: " << Counters::total_flops() / 1e9 << " Gflop\n";
  if (cm.messages > 0)
    os << "comm: " << cm.messages << " messages, "
       << static_cast<double>(cm.bytes) / 1e6 << " MB\n";
  if (const auto net = Counters::net();
      net.msgs_sent > 0 || net.msgs_recv > 0)
    os << "wire: " << net.msgs_sent << " frames out ("
       << static_cast<double>(net.bytes_sent) / 1e6 << " MB), "
       << net.msgs_recv << " frames in ("
       << static_cast<double>(net.bytes_recv) / 1e6 << " MB), "
       << net.retransmits << " retransmits\n";
  if (cp.count > 0)
    os << "recompressions: " << cp.count << " (mean rank "
       << static_cast<double>(cp.rank_in_sum) / static_cast<double>(cp.count)
       << " -> "
       << static_cast<double>(cp.rank_out_sum) / static_cast<double>(cp.count)
       << ")\n";
  if (rs.total() > 0) {
    os << "resilience:";
    for (int i = 0; i < kNumResilienceEvents; ++i) {
      if (rs.counts[i] == 0) continue;
      os << ' '
         << resilience_event_name(static_cast<ResilienceEvent>(i)) << '='
         << rs.counts[i];
    }
    os << '\n';
  }
  return os.str();
}

std::string counters_json() {
  const auto rows = Counters::kernel_rows();
  const auto cm = Counters::comm();
  const auto cp = Counters::compressions();
  const auto rs = Counters::resilience();
  std::ostringstream os;
  os.precision(17);  // doubles round-trip exactly
  os << "{\"kernels\": [";
  bool first = true;
  for (const auto& r : rows) {
    if (!first) os << ", ";
    first = false;
    os << "{\"kind\": " << r.kind << ", \"name\": \"" << kernel_name(r.kind)
       << "\", \"count\": " << r.count << ", \"flops\": " << r.flops
       << ", \"bytes\": " << r.bytes << ", \"rank_tasks\": " << r.rank_tasks
       << ", \"rank_in\": {\"min\": " << r.rank_in_min
       << ", \"mean\": " << r.rank_in_mean << ", \"max\": " << r.rank_in_max
       << "}, \"rank_out\": {\"min\": " << r.rank_out_min
       << ", \"mean\": " << r.rank_out_mean
       << ", \"max\": " << r.rank_out_max << "}}";
  }
  os << "], \"total_flops\": " << Counters::total_flops()
     << ", \"comm\": {\"messages\": " << cm.messages
     << ", \"bytes\": " << cm.bytes << "}";
  const auto net = Counters::net();
  os << ", \"net\": {\"msgs_sent\": " << net.msgs_sent
     << ", \"bytes_sent\": " << net.bytes_sent
     << ", \"msgs_recv\": " << net.msgs_recv
     << ", \"bytes_recv\": " << net.bytes_recv
     << ", \"retransmits\": " << net.retransmits << "}";
  os << ", \"compressions\": {\"count\": " << cp.count
     << ", \"rank_in_sum\": " << cp.rank_in_sum
     << ", \"rank_out_sum\": " << cp.rank_out_sum
     << "}, \"resilience\": {";
  for (int i = 0; i < kNumResilienceEvents; ++i) {
    if (i > 0) os << ", ";
    os << '"' << resilience_event_name(static_cast<ResilienceEvent>(i))
       << "\": " << rs.counts[i];
  }
  os << "}}";
  return os.str();
}

}  // namespace ptlr::obs
