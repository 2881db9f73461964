// Machine-readable task-throughput microbenchmark of the executor.
//
// Times raw scheduling overhead — empty-body and ~microsecond-body task
// graphs — of the work-stealing engine at 1 and 2 workers. Four shapes:
//
//   * independent_empty — N root tasks, no edges, empty bodies: pure
//     pop/complete cost, the headline tasks/second number.
//   * independent_spin  — same shape, ~1 µs spin bodies: how much of the
//     scheduler's overhead still shows once tasks do minimal work.
//   * forkjoin_empty    — repeated wide fork-joins with empty bodies:
//     exercises the dependency-release path and wakeups, not just pops.
//   * serial_chain      — one pure single-successor chain: zero available
//     parallelism, so it isolates the per-hop release cost (deque round
//     trips, diverts, wakeups) that the run-on-finisher path is meant to
//     reduce to a function call; SchedStats.inline_runs should cover
//     every task but the one that starts each kInlineChainMax + 1 segment.
//
// Output: BENCH_executor.json (override with PTLR_BENCH_OUT or argv[1]),
// one record per (shape, ntasks, threads) with seconds, tasks/second and
// the steal/inline/wakeup/park counters of the fastest rep, plus the
// 2-worker over 1-worker speedup per (shape, ntasks).
// tools/check_executor_bench.py gates the release-path shapes.
// PTLR_BENCH_SCALE=small shrinks the task counts for CI smoke runs;
// default sweeps 10k..1M.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "runtime/executor.hpp"

using namespace ptlr;

namespace {

struct Result {
  const char* shape;
  int ntasks;
  int threads;
  double seconds;
  double tasks_per_sec;
  rt::SchedStats stats;  // of the fastest rep
};

rt::TaskGraph independent(int n, int spin_iters) {
  rt::TaskGraph g;
  for (int i = 0; i < n; ++i) {
    rt::TaskInfo t;
    t.name = "t";  // shared name: graph build stays cheap at 1M tasks
    if (spin_iters > 0) {
      t.fn = [spin_iters] {
        volatile double acc = 1.0;
        for (int k = 0; k < spin_iters; ++k) acc = acc * 1.0000001 + 1e-9;
      };
    } else {
      t.fn = [] {};
    }
    g.add_task(std::move(t), {}, {});
  }
  return g;
}

rt::TaskGraph forkjoin(int stages, int fanout) {
  rt::TaskGraph g;
  std::uint32_t key = 0;
  std::vector<rt::DataKey> prev;  // the previous barrier's output
  for (int s = 0; s < stages; ++s) {
    std::vector<rt::DataKey> mids;
    for (int f = 0; f < fanout; ++f) {
      rt::TaskInfo t;
      t.name = "m";
      t.fn = [] {};
      const std::vector<rt::DataKey> out{rt::make_key(1, key++, 0)};
      g.add_task(std::move(t), prev, out);
      mids.push_back(out[0]);
    }
    rt::TaskInfo t;
    t.name = "b";
    t.fn = [] {};
    const std::vector<rt::DataKey> out{rt::make_key(1, key++, 0)};
    g.add_task(std::move(t), mids, out);
    prev = out;
  }
  return g;
}

rt::TaskGraph serial_chain(int n) {
  rt::TaskGraph g;
  std::vector<rt::DataKey> prev;
  for (int i = 0; i < n; ++i) {
    rt::TaskInfo t;
    t.name = "c";
    t.fn = [] {};
    const std::vector<rt::DataKey> out{
        rt::make_key(1, static_cast<std::uint32_t>(i), 0)};
    g.add_task(std::move(t), prev, out);
    prev = out;
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_executor.json";
  if (const char* env = std::getenv("PTLR_BENCH_OUT")) out_path = env;
  if (argc > 1) out_path = argv[1];

  std::vector<int> sizes = {10000, 100000, 1000000};
  const char* scale_env = std::getenv("PTLR_BENCH_SCALE");
  const std::string scale =
      scale_env != nullptr ? scale_env : std::string("default");
  if (scale == "small") sizes = {10000, 50000};
  if (scale == "large") sizes = {10000, 100000, 1000000, 4000000};

  rt::ExecOptions base;
  base.validate = false;  // timing the engines, not the graph checker
  base.perturb = rt::PerturbConfig{};
  base.faults = resil::FaultConfig{};
  base.watchdog = resil::WatchdogConfig{};

  std::vector<Result> results;
  std::printf("%-18s %9s %8s %12s %14s %8s %8s %8s %8s\n", "shape",
              "ntasks", "threads", "seconds", "tasks/s", "steals", "inline",
              "wakeups", "parks");

  struct Shape {
    const char* name;
    int spin;  // spin iterations; -1 = fork-join, -2 = serial chain
  };
  const Shape shapes[] = {
      {"independent_empty", 0},
      {"independent_spin", 400},  // ~1 µs dependent-FMA chain
      {"forkjoin_empty", -1},
      {"serial_chain", -2},
  };

  for (const Shape& shape : shapes) {
    for (const int n : sizes) {
      rt::TaskGraph g =
          shape.spin >= 0
              ? independent(n, shape.spin)
              // fanout 15 + barrier per stage → same task budget
              : (shape.spin == -1 ? forkjoin(n / 16, 15) : serial_chain(n));
      const int ntasks = g.size();
      // Best of 2 to 15 reps, until ~0.5 s is spent: short configs need
      // many samples to converge on the true floor (thread spawn + OS
      // jitter dominate single reps). The 1- and 2-worker reps alternate,
      // so drift on a shared host hits both sides of speedup_2w_over_1w
      // alike.
      double best[2] = {1e300, 1e300};
      rt::SchedStats stats[2];
      double spent = 0.0;
      for (int r = 0; r < 15 && (r < 2 || spent < 0.5); ++r) {
        for (int w = 0; w < 2; ++w) {
          WallTimer t;
          const auto res = rt::execute(g, w + 1, base);
          const double secs = t.seconds();
          spent += secs;
          if (secs < best[w]) {
            best[w] = secs;
            stats[w] = res.sched;
          }
        }
      }
      for (int w = 0; w < 2; ++w) {
        const rt::SchedStats& st = stats[w];
        results.push_back({shape.name, ntasks, w + 1, best[w],
                           ntasks / best[w], st});
        std::printf("%-18s %9d %8d %12.6f %14.0f %8lld %8lld %8lld %8lld\n",
                    shape.name, ntasks, w + 1, best[w], ntasks / best[w],
                    st.steals, st.inline_runs, st.wakeups, st.parks);
      }
      std::fflush(stdout);
    }
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"executor\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n  \"results\": [\n", scale.c_str());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"ntasks\": %d, \"threads\": %d, "
                 "\"seconds\": %.6e, \"tasks_per_sec\": %.0f, "
                 "\"steals\": %lld, \"inline_runs\": %lld, "
                 "\"wakeups\": %lld, \"parks\": %lld}%s\n",
                 r.shape, r.ntasks, r.threads, r.seconds, r.tasks_per_sec,
                 r.stats.steals, r.stats.inline_runs, r.stats.wakeups,
                 r.stats.parks, i + 1 < results.size() ? "," : "");
  }
  // 2-worker over 1-worker speedup per (shape, ntasks).
  std::fprintf(f, "  ],\n  \"speedup_2w_over_1w\": [\n");
  bool first = true;
  for (const Result& two : results) {
    if (two.threads != 2) continue;
    for (const Result& one : results) {
      if (one.threads == 1 && std::string(one.shape) == two.shape &&
          one.ntasks == two.ntasks) {
        std::fprintf(f,
                     "%s    {\"shape\": \"%s\", \"ntasks\": %d, "
                     "\"x\": %.2f}",
                     first ? "" : ",\n", two.shape, two.ntasks,
                     one.seconds / two.seconds);
        first = false;
      }
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
