// Measurement helpers of ptlr_bench: clocks, peak RSS, output checks,
// span aggregation and the rank report format.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dense/blas.hpp"
#include "obs/counters.hpp"
#include "tlr/io.hpp"

namespace ptlr_bench {

using namespace ptlr;

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

RotatingPin::RotatingPin() {
  static int next = 0;
  PTLR_CHECK(sched_getaffinity(0, sizeof(saved_), &saved_) == 0,
             "sched_getaffinity failed");
  int skip = next++ % CPU_COUNT(&saved_);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    PTLR_CHECK(sched_setaffinity(0, sizeof(one), &one) == 0,
               "sched_setaffinity failed");
    return;
  }
}

RotatingPin::~RotatingPin() { sched_setaffinity(0, sizeof(saved_), &saved_); }

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  PTLR_CHECK(f.good(), "cannot reset VmHWM through /proc/self/clear_refs");
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream is(line.substr(6));
    long long kb = 0;
    is >> kb;
    return static_cast<double>(kb) * 1024.0 / 1e6;
  }
  throw Error("VmHWM not found in /proc/self/status");
}

std::vector<double> gaussian_vector(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> z(static_cast<std::size_t>(n));
  for (auto& v : z) v = rng.gaussian();
  return z;
}

double residual(const stars::CovarianceProblem& prob,
                const std::vector<double>& x, const std::vector<double>& z) {
  const int n = prob.n();
  constexpr int kPanel = 128;
  dense::Matrix panel(kPanel, n);
  double rr = 0.0, zz = 0.0;
  for (int r0 = 0; r0 < n; r0 += kPanel) {
    const int rows = std::min(kPanel, n - r0);
    auto v = panel.view().block(0, 0, rows, n);
    prob.fill_block(r0, 0, v);
    std::vector<double> y(static_cast<std::size_t>(rows));
    dense::gemv(dense::Trans::N, 1.0, v, x.data(), 0.0, y.data());
    for (int i = 0; i < rows; ++i) {
      const double zi = z[static_cast<std::size_t>(r0 + i)];
      const double d = zi - y[static_cast<std::size_t>(i)];
      rr += d * d;
      zz += zi * zi;
    }
  }
  return std::sqrt(rr / zz);
}

std::uint64_t factor_hash(const tlr::TlrMatrix& a,
                          const std::vector<int>& owner, int rank) {
  std::uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      if (rank >= 0 &&
          owner[static_cast<std::size_t>(i) * a.nt() + j] != rank)
        continue;
      for (const char c : tlr::tile_to_bytes(a.at(i, j))) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
      }
    }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v, 16);
  return {buf, r.ptr};
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return {buf, r.ptr};
}

ClassTotals class_totals(const std::vector<obs::Span>& spans, double t0,
                         double t1) {
  ClassTotals c;
  for (const obs::Span& s : spans) {
    if (s.cat != obs::SpanCat::kTask || s.t0 < t0 || s.t1 > t1) continue;
    const double d = s.t1 - s.t0;
    c.span_seconds += d;
    if (s.kind < 0 || s.kind >= static_cast<int>(kHcoreClasses.size()))
      continue;
    const auto k = static_cast<std::size_t>(s.kind);
    c.count[k] += 1;
    c.seconds[k] += d;
    c.flops[k] += s.flops;
  }
  return c;
}

void add_hcore(Ledger& led, const ClassTotals& c) {
  for (std::size_t k = 0; k < kHcoreClasses.size(); ++k) {
    const std::string p = std::string("hcore.") + kHcoreClasses[k];
    led.add(p + ".count", static_cast<double>(c.count[k]));
    led.add(p + ".s", c.seconds[k]);
    led.add(p + ".gflops",
            c.seconds[k] > 0 ? c.flops[k] / c.seconds[k] / 1e9 : 0.0);
  }
}

void add_compress(Ledger& led, const obs::CompressionCounters& c) {
  const auto mean = [](long long sum, long long n) {
    return n > 0 ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
  };
  led.add("compress.recompress_count", static_cast<double>(c.count));
  led.add("compress.rank_in_mean", mean(c.rank_in_sum, c.count));
  led.add("compress.rank_out_mean", mean(c.rank_out_sum, c.count));
  led.add("compress.sketch_cols_mean", mean(c.sketch_cols_sum, c.adaptive));
  led.add("compress.fallbacks", static_cast<double>(c.fallbacks));
}

KeyValues read_key_values(const std::string& path) {
  std::ifstream f(path);
  PTLR_CHECK(f.good(), "missing report " + path);
  KeyValues kv;
  std::string line;
  while (std::getline(f, line)) {
    const auto sp = line.find(' ');
    if (sp != std::string::npos) kv[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return kv;
}

void write_key_values(const std::string& path, const KeyValues& kv) {
  std::ofstream f(path);
  for (const auto& [k, v] : kv) f << k << ' ' << v << '\n';
  f.flush();
  PTLR_CHECK(f.good(), "cannot write " + path);
}

}  // namespace ptlr_bench
