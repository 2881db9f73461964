#include "obs/counters.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "common/table.hpp"
#include "obs/trace.hpp"

namespace ptlr::obs {

namespace {

/// Index of a task kind among the rows: its class, or the last
/// (uncategorized) row.
int row_index(int kind) noexcept {
  return kind >= 0 && kind < flops::kNumKernels ? kind : flops::kNumKernels;
}

/// Every counter, reduced from the recorded spans in one pass.
struct Totals {
  KernelCounterRow rows[flops::kNumKernels + 1];
  long long rank_in_sum[flops::kNumKernels + 1] = {};
  long long rank_out_sum[flops::kNumKernels + 1] = {};
  CommCounters comm;
  NetCounters net;
  CompressionCounters compressions;
  ResilienceCounters resilience;

  void add_task(const Span& s) {
    const int i = row_index(s.kind);
    KernelCounterRow& r = rows[i];
    r.count++;
    r.flops += s.flops;
    r.bytes += s.bytes;
    if (s.rank_in < 0 && s.rank_out < 0) return;
    const int in = std::max(s.rank_in, 0);
    const int out = std::max(s.rank_out, 0);
    r.rank_in_min = r.rank_tasks == 0 ? in : std::min(r.rank_in_min, in);
    r.rank_in_max = r.rank_tasks == 0 ? in : std::max(r.rank_in_max, in);
    r.rank_out_min = r.rank_tasks == 0 ? out : std::min(r.rank_out_min, out);
    r.rank_out_max = r.rank_tasks == 0 ? out : std::max(r.rank_out_max, out);
    r.rank_tasks++;
    rank_in_sum[i] += in;
    rank_out_sum[i] += out;
    // A (5)/(6)-GEMM span is its tile's one compression.
    if (s.kind == static_cast<int>(flops::Kernel::kGemm5) ||
        s.kind == static_cast<int>(flops::Kernel::kGemm6)) {
      compressions.count++;
      compressions.rank_in_sum += s.rank_in;
      compressions.rank_out_sum += s.rank_out;
    }
  }

  void add_comm(const Span& s) {
    const char* name = s.name.c_str();
    if (std::strcmp(name, "send") == 0) {
      comm.messages++;
      comm.bytes += s.bytes;
    } else if (std::strcmp(name, net_event_name(NetEvent::kRecv)) == 0) {
      net.msgs_recv++;
      net.bytes_recv += s.bytes;
    } else if (std::strcmp(name, net_event_name(NetEvent::kRejoin)) != 0) {
      net.msgs_sent++;  // net_send or net_retransmit
      net.bytes_sent += s.bytes;
      if (std::strcmp(name, net_event_name(NetEvent::kRetransmit)) == 0)
        net.retransmits++;
    }
  }

  void add(const Span& s) {
    switch (s.cat) {
      case SpanCat::kTask: add_task(s); break;
      case SpanCat::kComm: add_comm(s); break;
      case SpanCat::kResil:
        if (s.kind >= 0 && s.kind < kNumResilienceEvents)
          resilience.counts[s.kind]++;
        break;
      case SpanCat::kSim: break;  // a model, not an execution
    }
  }
};

Totals totals() {
  Totals t;
  for (int k = 0; k <= flops::kNumKernels; ++k)
    t.rows[k].kind = k < flops::kNumKernels ? k : -1;
  detail::for_each_span([&t](const Span& s) { t.add(s); });
  for (int k = 0; k <= flops::kNumKernels; ++k) {
    KernelCounterRow& r = t.rows[k];
    if (r.rank_tasks == 0) continue;
    const double n = static_cast<double>(r.rank_tasks);
    r.rank_in_mean = static_cast<double>(t.rank_in_sum[k]) / n;
    r.rank_out_mean = static_cast<double>(t.rank_out_sum[k]) / n;
  }
  return t;
}

double total_flops(const Totals& t) {
  double sum = t.rows[flops::kNumKernels].flops;  // uncategorized first
  for (int k = 0; k < flops::kNumKernels; ++k) sum += t.rows[k].flops;
  return sum;
}

std::vector<KernelCounterRow> kernel_rows(const Totals& t) {
  std::vector<KernelCounterRow> rows;
  for (const KernelCounterRow& r : t.rows)
    if (r.count > 0) rows.push_back(r);
  return rows;
}

}  // namespace

std::vector<KernelCounterRow> Counters::kernel_rows() {
  return obs::kernel_rows(totals());
}

KernelCounterRow Counters::row(int kind) {
  return totals().rows[row_index(kind)];
}

CommCounters Counters::comm() { return totals().comm; }

NetCounters Counters::net() { return totals().net; }

CompressionCounters Counters::compressions() {
  return totals().compressions;
}

ResilienceCounters Counters::resilience() { return totals().resilience; }

std::string ResilienceCounters::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (int i = 0; i < kNumResilienceEvents; ++i) {
    if (counts[i] == 0) continue;
    if (!first) os << ' ';
    first = false;
    os << resilience_event_name(static_cast<ResilienceEvent>(i)) << '='
       << counts[i];
  }
  return os.str();
}

double Counters::total_flops() { return obs::total_flops(totals()); }

void Counters::reset() { obs::reset(); }

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
  const Totals tt = totals();
  const auto rows = kernel_rows(tt);
  const auto& cm = tt.comm;
  const auto& cp = tt.compressions;
  const auto& rs = tt.resilience;
  const auto& net = tt.net;
  if (rows.empty() && cm.messages == 0 && cp.count == 0 && rs.total() == 0 &&
      net.msgs_sent == 0 && net.msgs_recv == 0)
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
  os << "total measured: " << total_flops(tt) / 1e9 << " Gflop\n";
  if (cm.messages > 0)
    os << "comm: " << cm.messages << " messages, "
       << static_cast<double>(cm.bytes) / 1e6 << " MB\n";
  if (net.msgs_sent > 0 || net.msgs_recv > 0)
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
  const Totals tt = totals();
  const auto rows = kernel_rows(tt);
  const auto& cm = tt.comm;
  const auto& cp = tt.compressions;
  const auto& rs = tt.resilience;
  const auto& net = tt.net;
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
  os << "], \"total_flops\": " << total_flops(tt)
     << ", \"comm\": {\"messages\": " << cm.messages
     << ", \"bytes\": " << cm.bytes << "}";
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
