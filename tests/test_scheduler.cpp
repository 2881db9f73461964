// Work-stealing scheduler suite: priority banding, the Chase–Lev deque,
// and the full fuzz-invariant battery run against the lock-free engine
// with chaos mode off — every shape the perturbation suite throws at the
// engine must also hold on its production schedule — plus steal-heavy,
// inline-chain and nested-child shapes, and each chaos-mode decision
// point. CI runs this binary under ThreadSanitizer and AddressSanitizer
// via the preset label filters.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cholesky.hpp"
#include "core/mle.hpp"
#include "dense/blas.hpp"
#include "runtime/executor.hpp"
#include "runtime/nested.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/ws_deque.hpp"
#include "support/fuzz.hpp"
#include "support/obs_scope.hpp"
#include "support/scoped_env.hpp"
#include "tlr/io.hpp"

using namespace ptlr;
using namespace ptlr::testing;

namespace {

rt::ExecOptions ws_options() {
  rt::ExecOptions opts;
  opts.perturb = rt::PerturbConfig{};        // chaos off
  opts.faults = resil::FaultConfig{};        // no injection
  opts.watchdog = resil::WatchdogConfig{};   // no deadline
  return opts;
}

// Run `p` under `opts`, recording its spans, and assert all three fuzz
// invariants against the sequential oracle (same contract as the
// perturbation fuzz suite).
void run_and_check(FuzzProgram& p, int nthreads,
                   const rt::ExecOptions& opts) {
  const std::vector<double> oracle = p.run_reference();
  p.reset();
  const ObsScope traced;
  const auto res = rt::execute(p.graph(), nthreads, opts);
  EXPECT_EQ(check_ran_exactly_once(p.run_counts()), "");
  EXPECT_EQ(check_happens_before(p.graph(), obs::run_spans(res.run)), "");
  EXPECT_EQ(check_cells_match(p.cells(), oracle), "");
}

// Chaos mode without stalls: only the schedule decisions are perturbed.
rt::ExecOptions chaos_options(std::uint64_t seed, double inversion_p) {
  rt::ExecOptions opts = ws_options();
  opts.perturb = rt::PerturbConfig::with_seed(seed);
  opts.perturb.stall_probability = 0.0;
  opts.perturb.inversion_probability = inversion_p;
  return opts;
}

// A pure single-successor chain of `n` tasks counting into `ran`.
rt::TaskGraph serial_chain(int n, std::atomic<long long>& ran) {
  rt::TaskGraph g;
  std::vector<rt::DataKey> prev;
  for (int i = 0; i < n; ++i) {
    rt::TaskInfo t;
    t.name = "c";
    t.fn = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
    const std::vector<rt::DataKey> out{
        rt::make_key(1, static_cast<std::uint32_t>(i), 0)};
    g.add_task(std::move(t), prev, out);
    prev = out;
  }
  return g;
}

// Independent tasks logging their index; meant for one worker, so the
// log needs no lock. priority(i) sets task i's priority.
template <class Priority>
rt::TaskGraph logging_roots(int n, std::vector<int>& log, Priority priority) {
  rt::TaskGraph g;
  for (int i = 0; i < n; ++i) {
    rt::TaskInfo t;
    t.name = "t";
    t.priority = priority(i);
    t.fn = [&log, i] { log.push_back(i); };
    g.add_task(std::move(t), {}, {});
  }
  return g;
}

}  // namespace

// ------------------------------------------------------------ band map --

TEST(BandMap, FlatGraphIsOneBand) {
  auto p = FuzzProgram::diamond(2, 3);
  const auto m = rt::BandMap::from_graph(p.graph());
  EXPECT_EQ(m.band(0.0), 0);
}

TEST(BandMap, RangeBinsMonotonically) {
  rt::TaskGraph g;
  for (int i = 0; i < 5; ++i) {
    rt::TaskInfo t;
    t.name = "t" + std::to_string(i);
    t.priority = static_cast<double>(i * 10);
    t.fn = [] {};
    g.add_task(std::move(t), {}, {});
  }
  const auto m = rt::BandMap::from_graph(g);
  EXPECT_EQ(m.band(0.0), 0);
  EXPECT_EQ(m.band(40.0), rt::kSchedBands - 1);
  int prev = 0;
  for (double x = 0.0; x <= 40.0; x += 1.0) {
    const int b = m.band(x);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, rt::kSchedBands);
    prev = b;
  }
}

// ---------------------------------------------------------------- deque --

TEST(WsDeque, OwnerIsLifoThiefIsFifo) {
  rt::WsDeque d;
  for (std::int32_t i = 0; i < 4; ++i) d.push(i);
  EXPECT_EQ(d.steal(), 0);  // oldest
  EXPECT_EQ(d.pop(), 3);    // newest
  EXPECT_EQ(d.pop(), 2);
  EXPECT_EQ(d.steal(), 1);
  EXPECT_EQ(d.pop(), rt::WsDeque::kEmpty);
  EXPECT_EQ(d.steal(), rt::WsDeque::kEmpty);
}

TEST(WsDeque, GrowsPastInitialCapacity) {
  rt::WsDeque d(8);
  const std::int32_t n = 1000;
  for (std::int32_t i = 0; i < n; ++i) d.push(i);
  EXPECT_EQ(d.size_hint(), n);
  for (std::int32_t i = n - 1; i >= 0; --i) EXPECT_EQ(d.pop(), i);
  EXPECT_EQ(d.pop(), rt::WsDeque::kEmpty);
}

TEST(WsDeque, ConcurrentStealsTakeEveryTaskExactlyOnce) {
  rt::WsDeque d;
  const std::int32_t n = 20000;
  std::vector<std::atomic<int>> taken(static_cast<std::size_t>(n));
  std::atomic<bool> go{false};
  std::atomic<std::int32_t> remaining{n};
  auto thief = [&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    while (remaining.load(std::memory_order_acquire) > 0) {
      const std::int32_t v = d.steal();
      if (v < 0) continue;
      taken[static_cast<std::size_t>(v)].fetch_add(1);
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  };
  std::thread t1(thief), t2(thief);
  go.store(true, std::memory_order_release);
  // Owner interleaves pushes and pops against the two thieves.
  std::int32_t pushed = 0;
  while (pushed < n) {
    for (int burst = 0; burst < 64 && pushed < n; ++burst) d.push(pushed++);
    const std::int32_t v = d.pop();
    if (v >= 0) {
      taken[static_cast<std::size_t>(v)].fetch_add(1);
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  for (;;) {
    const std::int32_t v = d.pop();
    if (v == rt::WsDeque::kEmpty) break;
    taken[static_cast<std::size_t>(v)].fetch_add(1);
    remaining.fetch_sub(1, std::memory_order_acq_rel);
  }
  t1.join();
  t2.join();
  EXPECT_EQ(remaining.load(), 0);
  for (std::int32_t i = 0; i < n; ++i)
    EXPECT_EQ(taken[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
}

// ----------------------------------------------- fuzz invariants on ws --

class WsFuzz : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] std::uint64_t seed() const {
    return static_cast<std::uint64_t>(GetParam());
  }
};

TEST_P(WsFuzz, RandomDagMatchesOracle) {
  Rng rng(seed());
  auto p = FuzzProgram::random(rng, 150, 12);
  for (const int nthreads : {2, 4})
    run_and_check(p, nthreads, ws_options());
}

TEST_P(WsFuzz, DiamondMatchesOracle) {
  auto p = FuzzProgram::diamond(10, 6);
  for (const int nthreads : {2, 4})
    run_and_check(p, nthreads, ws_options());
}

TEST_P(WsFuzz, ForkJoinMatchesOracle) {
  auto p = FuzzProgram::fork_join(8, 5);
  for (const int nthreads : {2, 4})
    run_and_check(p, nthreads, ws_options());
}

TEST_P(WsFuzz, BandCholeskyShapeMatchesOracle) {
  auto p = FuzzProgram::band_cholesky(6, 2);
  for (const int nthreads : {2, 4})
    run_and_check(p, nthreads, ws_options());
}

TEST_P(WsFuzz, NestedShapeMatchesOracle) {
  // Tasks that spawn random child subgraphs through rt::TaskGroup: the
  // cells must still match the insertion-order oracle bitwise, and every
  // child must run exactly once, whether the children get stolen or run
  // on the spawning worker.
  Rng rng(seed());
  auto p = FuzzProgram::nested(rng, 100, 10, 4);
  for (const int nthreads : {2, 4}) {
    run_and_check(p, nthreads, ws_options());
    EXPECT_EQ(check_ran_exactly_once(p.child_runs()), "")
        << "child counts at " << nthreads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WsFuzz, ::testing::Range(1, 9));

TEST(WsScheduler, StealHeavyStressStealsAndStaysCorrect) {
  // Wide fork-join with skewed durations: one source releases the whole
  // middle layer onto the finishing worker's deque at once, so other
  // workers can only get work by stealing; a sink joins everything. Two
  // of the middle tasks form a rendezvous — a waiter that spins until a
  // setter runs — which makes at least one steal mandatory on any machine
  // (including a single-core box, where preemption alone decides whether
  // the idle workers ever see the short spinners): the finishing worker
  // pops the waiter (LIFO — it is pushed last) and blocks, so the setter
  // can only run via another worker's steal.
  constexpr int kWidth = 64;
  rt::TaskGraph g;
  std::vector<double> out(kWidth, 0.0);
  std::atomic<long long> ran{0};
  std::atomic<bool> flag{false};
  {
    rt::TaskInfo t;
    t.name = "src";
    t.fn = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
    g.add_task(std::move(t), {}, {{rt::make_key(1, 0, 0)}});
  }
  {
    rt::TaskInfo t;
    t.name = "setter";
    t.fn = [&ran, &flag] {
      flag.store(true, std::memory_order_release);
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    g.add_task(std::move(t), {{rt::make_key(1, 0, 0)}},
               {{rt::make_key(3, 0, 0)}});
  }
  for (int i = 0; i < kWidth; ++i) {
    rt::TaskInfo t;
    t.name = "spin" + std::to_string(i);
    double* slot = &out[static_cast<std::size_t>(i)];
    const int iters = 100 + (i % 8) * 4000;  // skewed durations
    t.fn = [&ran, slot, iters] {
      double acc = 1.0;
      for (int k = 0; k < iters; ++k) acc = acc * 1.0000001 + 1e-9;
      *slot = acc;
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    g.add_task(std::move(t), {{rt::make_key(1, 0, 0)}},
               {{rt::make_key(2, static_cast<std::uint32_t>(i), 0)}});
  }
  {
    // Added last → pushed last on release → popped first by the worker
    // that finished the source.
    rt::TaskInfo t;
    t.name = "waiter";
    t.fn = [&ran, &flag] {
      while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    g.add_task(std::move(t), {{rt::make_key(1, 0, 0)}},
               {{rt::make_key(3, 1, 0)}});
  }
  {
    rt::TaskInfo t;
    t.name = "sink";
    t.fn = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
    std::vector<rt::DataKey> reads;
    for (int i = 0; i < kWidth; ++i)
      reads.push_back({rt::make_key(2, static_cast<std::uint32_t>(i), 0)});
    reads.push_back({rt::make_key(3, 0, 0)});
    reads.push_back({rt::make_key(3, 1, 0)});
    g.add_task(std::move(t), reads, {});
  }

  auto opts = ws_options();
  const ObsScope traced;
  const auto res = rt::execute(g, 4, opts);
  EXPECT_EQ(ran.load(), kWidth + 4);
  EXPECT_EQ(check_happens_before(g, obs::run_spans(res.run)), "");
  EXPECT_GT(res.sched.steals, 0);
  for (int i = 0; i < kWidth; ++i)
    EXPECT_GT(out[static_cast<std::size_t>(i)], 0.0) << "spinner " << i;
}

// ----------------------------------------------- run-on-finisher chain --

TEST(WsScheduler, SerialChainRunsInlineWithoutWakeups) {
  // A pure single-successor chain is the worst case for the old release
  // path (one deque round trip + possible divert + wakeup per hop) and
  // the best case for run-on-finisher: every hop but the depth-cap breaks
  // must become a plain function call. The counter math is deterministic
  // regardless of which worker ends up driving the chain: a segment is
  // 1 popped/stolen task + kInlineChainMax inlined successors, so 1000
  // tasks split as 257 + 257 + 257 + 229 — 996 inline runs and 3
  // suppressed diverts — and no release ever wakes anyone, because a sole
  // successor is either inlined or (at a break) pushed for the same
  // worker to pop back.
  constexpr int kN = 1000;
  std::atomic<long long> ran{0};
  rt::TaskGraph g = serial_chain(kN, ran);
  const ObsScope traced;
  const auto res = rt::execute(g, 2, ws_options());
  EXPECT_EQ(ran.load(), kN);
  EXPECT_EQ(check_happens_before(g, obs::run_spans(res.run)), "");
  EXPECT_EQ(res.sched.inline_runs, 996);
  EXPECT_EQ(res.sched.divert_suppressed, 3);
  EXPECT_EQ(res.sched.wakeups, 0);
}

TEST(WsScheduler, ForkJoinReleasesBarriersInline) {
  // Each stage task writes a cell of its own that only the stage's
  // barrier reads, so the barrier is its one successor, and the barrier's
  // cell feeds every task of the next stage. The stage task that finishes
  // last releases the barrier as its sole successor and runs it inline;
  // the barrier then fans out. So S stages make exactly S inline runs,
  // whichever worker ran which task and wherever one was preempted.
  constexpr int kStages = 40;
  constexpr int kFanout = 6;
  constexpr int kCells = kStages * (kFanout + 1);
  const auto lane = [](int s, int f) { return s * (kFanout + 1) + f; };
  const auto barrier = [](int s) { return s * (kFanout + 1) + kFanout; };
  const auto key = [](int cell) {
    return rt::make_key(1, static_cast<std::uint32_t>(cell), 0);
  };
  std::vector<double> cells(kCells, 0.0);
  // Non-commutative arithmetic: any order the graph does not force would
  // show up in the cells.
  const auto work = [&cells, barrier, lane](int s, int f) {
    const double in = s > 0 ? cells[static_cast<std::size_t>(barrier(s - 1))]
                            : 1.0;
    cells[static_cast<std::size_t>(lane(s, f))] = in * 0.75 + f;
  };
  const auto join = [&cells, barrier, lane](int s) {
    double acc = 0.0;
    for (int f = 0; f < kFanout; ++f)
      acc = acc * 0.5 + cells[static_cast<std::size_t>(lane(s, f))];
    cells[static_cast<std::size_t>(barrier(s))] = acc / kFanout;
  };

  rt::TaskGraph g;
  for (int s = 0; s < kStages; ++s) {
    std::vector<rt::DataKey> lanes;
    for (int f = 0; f < kFanout; ++f) {
      rt::TaskInfo t;
      t.name = "w";
      t.priority = (s + f) % 3;
      t.fn = [work, s, f] { work(s, f); };
      std::vector<rt::DataKey> reads;
      if (s > 0) reads.push_back(key(barrier(s - 1)));
      lanes.push_back(key(lane(s, f)));
      g.add_task(std::move(t), reads,
                 std::vector<rt::DataKey>{lanes.back()});
    }
    rt::TaskInfo t;
    t.name = "join";
    t.fn = [join, s] { join(s); };
    g.add_task(std::move(t), lanes, std::vector<rt::DataKey>{key(barrier(s))});
  }
  for (rt::TaskId t = 0; t < g.size(); ++t) {
    const bool is_join = t % (kFanout + 1) == kFanout;
    const bool last_stage = t / (kFanout + 1) == kStages - 1;
    const std::size_t want = !is_join ? 1 : (last_stage ? 0 : kFanout);
    ASSERT_EQ(g.successors(t).size(), want) << "task " << t;
  }

  for (int s = 0; s < kStages; ++s) {  // the oracle: insertion order
    for (int f = 0; f < kFanout; ++f) work(s, f);
    join(s);
  }
  const std::vector<double> oracle = cells;
  std::fill(cells.begin(), cells.end(), 0.0);
  const auto res = rt::execute(g, 2, ws_options());
  EXPECT_EQ(check_cells_match(cells, oracle), "");
  EXPECT_EQ(res.sched.inline_runs, kStages);
}

// ------------------------------------------------------------ chaos mode --
// Chaos mode perturbs the engine's own decisions. With stalls off, each
// decision shows up exactly in one worker's task order or in the counters.

TEST(WsScheduler, ChaosPopsTakeEitherEndOfABand) {
  // Roots are seeded so that a plain pop runs equal-priority tasks in
  // insertion order. A chaos pop takes the band's oldest entry instead
  // half of the time: every task run is then the lowest or the highest
  // index still queued, and some seed must take the high end.
  constexpr int kN = 64;
  const auto flat = [](int) { return 0.0; };
  std::vector<int> log;
  rt::TaskGraph plain = logging_roots(kN, log, flat);
  rt::execute(plain, 1, ws_options());
  std::vector<int> in_order(kN);
  for (int i = 0; i < kN; ++i) in_order[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(log, in_order);

  int reordered = 0;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    log.clear();
    rt::TaskGraph g = logging_roots(kN, log, flat);
    rt::execute(g, 1, chaos_options(s, /*inversion_p=*/0.0));
    ASSERT_EQ(log.size(), static_cast<std::size_t>(kN)) << "seed " << s;
    int lo = 0;
    int hi = kN - 1;
    for (const int t : log) {
      if (t == lo) {
        ++lo;
      } else {
        ASSERT_EQ(t, hi) << "seed " << s << " ran from mid-band";
        --hi;
      }
    }
    if (log != in_order) ++reordered;
  }
  EXPECT_GT(reordered, 0);
}

TEST(WsScheduler, ChaosInversionsFileTasksInRandomBands) {
  // Priorities 0..3 take one band each, so one worker runs them 3, 2, 1, 0
  // — under chaos too while inversions are off. At inversion probability 1
  // every task lands in a random band, and some seed must run a lower
  // priority first.
  const auto by_index = [](int i) { return static_cast<double>(i); };
  const std::vector<int> band_order{3, 2, 1, 0};
  int inverted = 0;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    std::vector<int> log;
    rt::TaskGraph g = logging_roots(4, log, by_index);
    rt::execute(g, 1, chaos_options(s, /*inversion_p=*/0.0));
    EXPECT_EQ(log, band_order) << "seed " << s;

    log.clear();
    rt::TaskGraph h = logging_roots(4, log, by_index);
    rt::execute(h, 1, chaos_options(s, /*inversion_p=*/1.0));
    std::vector<int> sorted = log;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3})) << "seed " << s;
    if (log != band_order) ++inverted;
  }
  EXPECT_GT(inverted, 0);
}

TEST(WsScheduler, ChaosBreaksInlineChainsWithTheInversionProbability) {
  // An inline chain breaks at a hop with the inversion probability. At 0
  // the 1000-task chain keeps SerialChainRunsInlineWithoutWakeups' counts
  // (996 inline runs, 3 breaks at the depth cap); at 1 every hop breaks,
  // so nothing runs inline and all 999 releases are pushed undiverted.
  constexpr int kN = 1000;
  for (const int threads : {1, 2}) {
    for (std::uint64_t s = 1; s <= 3; ++s) {
      std::atomic<long long> ran{0};
      rt::TaskGraph g = serial_chain(kN, ran);
      const ObsScope traced;
      const auto kept =
          rt::execute(g, threads, chaos_options(s, /*inversion_p=*/0.0));
      EXPECT_EQ(ran.load(), kN);
      EXPECT_EQ(check_happens_before(g, obs::run_spans(kept.run)), "");
      EXPECT_EQ(kept.sched.inline_runs, 996)
          << threads << " workers, seed " << s;
      EXPECT_EQ(kept.sched.divert_suppressed, 3)
          << threads << " workers, seed " << s;

      ran.store(0);
      rt::TaskGraph h = serial_chain(kN, ran);
      const auto broken =
          rt::execute(h, threads, chaos_options(s, /*inversion_p=*/1.0));
      EXPECT_EQ(ran.load(), kN);
      EXPECT_EQ(check_happens_before(h, obs::run_spans(broken.run)), "");
      EXPECT_EQ(broken.sched.inline_runs, 0)
          << threads << " workers, seed " << s;
      EXPECT_EQ(broken.sched.divert_suppressed, kN - 1)
          << threads << " workers, seed " << s;
    }
  }
}

// ------------------------------------------------ nested child tasks --

namespace {

// C = A·B at n = 256, above the 64^3 volume cutoff, as one graph task.
// The reference is the fat single call: no worker context on the test
// thread, so gemm does not fan out there.
struct NestedGemm {
  static constexpr int n = 256;
  dense::Matrix a{n, n}, b{n, n}, ref{n, n};

  NestedGemm() {
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        a(i, j) = 1.0 + 0.25 * std::sin(0.01 * i + 0.02 * j);
        b(i, j) = 0.5 + 0.125 * std::cos(0.015 * i - 0.01 * j);
      }
    dense::gemm(dense::Trans::N, dense::Trans::N, 1.0, a.view(), b.view(),
                0.0, ref.view());
  }

  rt::ExecResult run(dense::Matrix& c, const rt::ExecOptions& opts) {
    rt::TaskGraph g;
    rt::TaskInfo t;
    t.name = "gemm";
    t.fn = [&] {
      dense::gemm(dense::Trans::N, dense::Trans::N, 1.0, a.view(), b.view(),
                  0.0, c.view());
    };
    g.add_task(std::move(t), {}, {{rt::make_key(0, 0, 0)}});
    return rt::execute(g, 2, opts);
  }

  // Empty when `c` equals the reference bit for bit, else where it differs.
  [[nodiscard]] std::string mismatch(const dense::Matrix& c) const {
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        if (std::memcmp(&c(i, j), &ref(i, j), sizeof(double)) != 0)
          return "diverged at (" + std::to_string(i) + "," +
                 std::to_string(j) + ")";
    return "";
  }
};

}  // namespace

TEST(WsScheduler, LargeGemmSpawnsChildrenAndStaysBitwise) {
  // A graph task running a dense kernel above the 64^3 volume cutoff must
  // fan out child tasks on the ws engine, and the result must be bitwise
  // identical to the fat serial call (branch-stable decomposition).
  NestedGemm gemm;
  dense::Matrix c(NestedGemm::n, NestedGemm::n);
  const auto res = gemm.run(c, ws_options());
  EXPECT_GT(res.sched.nested_spawned, 0);
  EXPECT_EQ(gemm.mismatch(c), "");
}

TEST(WsScheduler, ChaosRunsSpawnChildrenAndStayBitwise) {
  // Chaos mode perturbs the production engine, so a seeded sweep races
  // nested children too: thieves start at random victims and the parent
  // may stall before it runs. The product stays bitwise.
  NestedGemm gemm;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    dense::Matrix c(NestedGemm::n, NestedGemm::n);
    auto opts = ws_options();
    opts.perturb = rt::PerturbConfig::with_seed(s);
    const auto res = gemm.run(c, opts);
    EXPECT_GT(res.sched.nested_spawned, 0) << "seed " << s;
    EXPECT_EQ(gemm.mismatch(c), "") << "seed " << s;
  }
}

TEST(WsScheduler, EveryWsRunInstallsTheChildSubstrate) {
  // Nested children have no off switch: every ws run, at any worker count
  // and whatever the environment says, accepts children from its tasks.
  ScopedEnv legacy("PTLR_NESTED", "off");
  for (const int threads : {2, 3, 4}) {
    std::atomic<long long> spawned_inside{0};
    rt::TaskGraph g;
    rt::TaskInfo t;
    t.name = "parent";
    t.fn = [&spawned_inside] {
      if (rt::nested_available()) spawned_inside.fetch_add(1);
      rt::TaskGroup tg;
      for (int c = 0; c < 4; ++c) tg.spawn([] {});
      tg.sync();
    };
    g.add_task(std::move(t), {}, {{rt::make_key(0, 0, 0)}});
    const auto res = rt::execute(g, threads, ws_options());
    EXPECT_EQ(spawned_inside.load(), 1) << threads << " threads";
    EXPECT_EQ(res.sched.nested_spawned, 4) << threads << " threads";
  }
}

// --------------------------------------- resilience contracts under ws --

namespace {

// Tasks with full recovery hooks over a private array (mirrors the
// resilience suite's SlotGraph, trimmed).
struct SlotGraph {
  explicit SlotGraph(int n, double scale) : data(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) {
      rt::TaskInfo t;
      t.name = "slot" + std::to_string(i);
      double* slot = &data[static_cast<std::size_t>(i)];
      const double v = static_cast<double>(i);
      t.fn = [slot, v, scale] { *slot = scale * v + 1.0; };
      rt::TaskOutput out;
      out.save = [slot] {
        std::vector<char> b(sizeof(double));
        std::memcpy(b.data(), slot, sizeof(double));
        return b;
      };
      out.restore = [slot](const std::vector<char>& b) {
        if (b.size() == sizeof(double))
          std::memcpy(slot, b.data(), sizeof(double));
      };
      out.finite = [slot] { return std::isfinite(*slot); };
      out.poison = [slot](std::uint64_t) {
        *slot = std::numeric_limits<double>::quiet_NaN();
        return true;
      };
      t.outputs.push_back(std::move(out));
      g.add_task(std::move(t), {},
                 {{rt::make_key(0, static_cast<std::uint32_t>(i), 0)}});
    }
  }
  std::vector<double> data;
  rt::TaskGraph g;
};

}  // namespace

TEST(WsScheduler, FaultRecoveryAccountingIsExact) {
  // injected == retries == recovered must hold exactly on the lock-free
  // release path, and the output must match.
  const int n = 48;
  SlotGraph sg(n, 2.0);
  auto opts = ws_options();
  opts.faults = resil::FaultConfig::with_seed(7);
  opts.faults.task_exception_probability = 1.0;
  opts.faults.alloc_failure_probability = 0.0;
  opts.faults.poison_probability = 0.0;
  opts.retry.backoff_us = 1;
  const auto res = rt::execute(sg.g, 4, opts);
  EXPECT_EQ(res.recovery.faults_injected(), n);
  EXPECT_EQ(res.recovery.faults_injected(), res.recovery.retries());
  EXPECT_EQ(res.recovery.retries(), res.recovery.tasks_recovered());
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(sg.data[static_cast<std::size_t>(i)],
              2.0 * static_cast<double>(i) + 1.0);
}

TEST(WsScheduler, ChildFaultRollupAccountingIsExact) {
  // Parents spawn children through rt::TaskGroup; fault injection poisons
  // the parent's output AFTER the body (so the children have already run)
  // and the finite check converts that into a retry. The contract: the
  // fork/join scope is part of the parent's attempt — restore rolls the
  // slot back, the retry re-runs the whole body including every child
  // (exactly 2 runs per child: attempt 0 + the recovery attempt), and the
  // recovered values are exact.
  constexpr int kN = 16;
  constexpr int kKids = 3;
  std::vector<double> data(kN, 0.0);
  std::vector<std::array<double, kKids>> partials(kN);
  std::vector<std::atomic<long long>> kid_runs(kN);
  for (auto& c : kid_runs) c.store(0);
  rt::TaskGraph g;
  for (int i = 0; i < kN; ++i) {
    rt::TaskInfo t;
    t.name = "parent" + std::to_string(i);
    double* slot = &data[static_cast<std::size_t>(i)];
    auto* part = &partials[static_cast<std::size_t>(i)];
    auto* runs = &kid_runs[static_cast<std::size_t>(i)];
    t.fn = [slot, part, runs, i] {
      *slot = 1.0;
      rt::TaskGroup tg;
      for (int c = 0; c < kKids; ++c) {
        tg.spawn([part, runs, i, c] {
          runs->fetch_add(1, std::memory_order_relaxed);
          (*part)[static_cast<std::size_t>(c)] =
              0.5 * static_cast<double>(i + 1) + static_cast<double>(c);
        });
      }
      tg.sync();
      for (int c = 0; c < kKids; ++c)
        *slot += (*part)[static_cast<std::size_t>(c)];
    };
    rt::TaskOutput out;
    out.save = [slot] {
      std::vector<char> b(sizeof(double));
      std::memcpy(b.data(), slot, sizeof(double));
      return b;
    };
    out.restore = [slot](const std::vector<char>& b) {
      if (b.size() == sizeof(double))
        std::memcpy(slot, b.data(), sizeof(double));
    };
    out.finite = [slot] { return std::isfinite(*slot); };
    out.poison = [slot](std::uint64_t) {
      *slot = std::numeric_limits<double>::quiet_NaN();
      return true;
    };
    t.outputs.push_back(std::move(out));
    g.add_task(std::move(t), {},
               {{rt::make_key(0, static_cast<std::uint32_t>(i), 0)}});
  }
  auto opts = ws_options();
  opts.faults = resil::FaultConfig::with_seed(11);
  opts.faults.task_exception_probability = 0.0;
  opts.faults.alloc_failure_probability = 0.0;
  opts.faults.poison_probability = 1.0;
  opts.retry.backoff_us = 1;
  const auto res = rt::execute(g, 4, opts);
  EXPECT_EQ(res.recovery.faults_injected(), kN);
  EXPECT_EQ(res.recovery.faults_injected(), res.recovery.retries());
  EXPECT_EQ(res.recovery.retries(), res.recovery.tasks_recovered());
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(kid_runs[static_cast<std::size_t>(i)].load(), 2 * kKids)
        << "parent " << i;
    double want = 1.0;
    for (int c = 0; c < kKids; ++c)
      want += 0.5 * static_cast<double>(i + 1) + static_cast<double>(c);
    EXPECT_EQ(data[static_cast<std::size_t>(i)], want) << "parent " << i;
  }
}

TEST(WsScheduler, WatchdogConvertsStallIntoError) {
  rt::TaskGraph g;
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  {
    rt::TaskInfo t;
    t.name = "stuck";
    t.fn = [released] { released.wait(); };
    g.add_task(std::move(t), {}, {{rt::make_key(0, 0, 0)}});
  }
  auto opts = ws_options();
  opts.watchdog.deadline_ms = 100;
  opts.on_stall = [&release] { release.set_value(); };
  try {
    rt::execute(g, 2, opts);
    FAIL() << "expected the watchdog error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("stuck"), std::string::npos);
  }
}

// ---------------------------------------------------------- gate hook --
// A gated task (TaskGraph::add_gate) has one predecessor that a thread
// outside the pool opens through ExecOptions::open_gates — the receive
// thread of a distributed rank. Chaos mode follows PTLR_PERTURB_SEED here,
// so CI's perturb loop drives these tests through the perturbed engine.

namespace {

rt::ExecOptions gate_options() {
  rt::ExecOptions opts = ws_options();
  opts.perturb = rt::PerturbConfig::from_env();
  return opts;
}

}  // namespace

TEST(GateHook, ForeignThreadOpensGatesInAnyOrder) {
  for (const int nthreads : {1, 2}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed);
      auto p = FuzzProgram::random(rng, 200, 16);
      std::vector<rt::TaskId> gated;
      for (rt::TaskId t = 0; t < p.size(); ++t) {
        if (rng.uniform() >= 0.1) continue;
        p.graph().add_gate(t);
        gated.push_back(t);
      }
      ASSERT_FALSE(gated.empty());
      EXPECT_EQ(p.graph().gates(), static_cast<int>(gated.size()));
      for (std::size_t i = gated.size(); i > 1; --i)
        std::swap(gated[i - 1], gated[static_cast<std::size_t>(
                                    rng.integer(0, static_cast<int>(i) - 1))]);

      const std::vector<double> oracle = p.run_reference();
      p.reset();
      auto opts = gate_options();
      opts.on_stall = [] {};
      opts.open_gates = [&](const std::function<void(rt::TaskId)>& open) {
        for (const rt::TaskId t : gated) {
          if (rng.uniform() < 0.3) std::this_thread::yield();
          open(t);
        }
      };
      const ObsScope traced;
      const auto res = rt::execute(p.graph(), nthreads, opts);
      const std::string where = "nthreads=" + std::to_string(nthreads) +
                                " seed=" + std::to_string(seed);
      EXPECT_EQ(check_ran_exactly_once(p.run_counts()), "") << where;
      EXPECT_EQ(check_happens_before(p.graph(), obs::run_spans(res.run)), "")
          << where;
      EXPECT_EQ(check_cells_match(p.cells(), oracle), "") << where;
    }
  }
}

TEST(GateHook, TaskErrorEndsTheRunAndUnblocksTheOpener) {
  rt::TaskGraph g;
  {
    rt::TaskInfo t;
    t.name = "boom";
    t.fn = [] { throw Error("boom in a task body"); };
    g.add_task(std::move(t), {}, {{rt::make_key(0, 0, 0)}});
  }
  {
    rt::TaskInfo t;
    t.name = "recv(1,0)";
    g.add_gate(g.add_task(std::move(t), {}, {{rt::make_key(0, 1, 0)}}));
  }
  std::promise<void> stalled;
  std::shared_future<void> on_stall_called(stalled.get_future());
  std::atomic<bool> opener_done{false};
  auto opts = gate_options();
  opts.on_stall = [&stalled] { stalled.set_value(); };
  opts.open_gates = [&](const std::function<void(rt::TaskId)>&) {
    // Blocks like a receive thread until the cancellation aborts it.
    on_stall_called.wait();
    opener_done.store(true);
    throw Error("receive aborted");
  };
  try {
    rt::execute(g, 2, opts);
    FAIL() << "expected the task's error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom in a task body"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(opener_done.load());  // joined before execute() returned
}

TEST(GateHook, UnopenedGateEndsInWatchdogErrorNamingTheTask) {
  rt::TaskGraph g;
  {
    rt::TaskInfo t;
    t.name = "potrf(0)";
    t.fn = [] {};
    g.add_task(std::move(t), {}, {{rt::make_key(0, 0, 0)}});
  }
  {
    rt::TaskInfo t;
    t.name = "recv(3,1)";
    g.add_gate(g.add_task(std::move(t), {}, {{rt::make_key(0, 3, 1)}}));
  }
  {
    rt::TaskInfo t;
    t.name = "syrk(3,1)";
    t.fn = [] {};
    g.add_task(std::move(t), {{rt::make_key(0, 3, 1)}},
               {{rt::make_key(0, 3, 3)}});
  }
  std::promise<void> stalled;
  std::shared_future<void> on_stall_called(stalled.get_future());
  auto opts = gate_options();
  opts.watchdog.deadline_ms = 100;
  opts.on_stall = [&stalled] { stalled.set_value(); };
  opts.open_gates = [&](const std::function<void(rt::TaskId)>&) {
    on_stall_called.wait();  // never opens its gate
  };
  try {
    rt::execute(g, 1, opts);
    FAIL() << "expected the watchdog error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    EXPECT_NE(what.find("pending on gate (1): recv(3,1)"), std::string::npos)
        << what;
  }
}

TEST(GateHook, GatedGraphNeedsAnOpener) {
  rt::TaskGraph g;
  rt::TaskInfo t;
  t.name = "recv(0,0)";
  const rt::TaskId id = g.add_task(std::move(t), {}, {{rt::make_key(0, 0, 0)}});
  g.add_gate(id);
  EXPECT_THROW(g.add_gate(id), Error);  // one gate per task
  EXPECT_NO_THROW(g.validate());
  EXPECT_THROW(rt::execute(g, 1, gate_options()), Error);
}

// --------------------------------- end-to-end Cholesky bitwise identity --

namespace {

dense::Matrix assemble_lower_factor(const tlr::TlrMatrix& m) {
  dense::Matrix l(m.n(), m.n());
  for (int i = 0; i < m.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      dense::Matrix blk = m.at(i, j).to_dense();
      for (int c = 0; c < blk.cols(); ++c)
        for (int r = 0; r < blk.rows(); ++r) {
          if (i == j && r < c) continue;
          l(m.row_offset(i) + r, m.row_offset(j) + c) = blk(r, c);
        }
    }
  return l;
}

}  // namespace

TEST(WsScheduler, BandCholeskyFactorBitwiseMatchesSequentialOracle) {
  // The full BAND-DENSE-TLR factorization at 2 and 4 workers must produce
  // the same factor, bit for bit, as a 1-worker run — the same contract
  // the perturbation sweep enforces under chaos.
  const int n = 160;
  const int b = 40;
  const double tol = 1e-6;
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DMatern, n, 17, 1e-1);
  auto factor_once = [&](int threads) {
    auto a = tlr::TlrMatrix::from_problem_parallel(prob, b, {tol, 1 << 30},
                                                   threads, 1);
    core::CholeskyConfig cfg;
    cfg.acc = {tol, 1 << 30};
    cfg.band_size = 2;
    cfg.nthreads = threads;
    cfg.perturb = rt::PerturbConfig{};
    cfg.faults = resil::FaultConfig{};
    cfg.watchdog = resil::WatchdogConfig{};
    core::factorize(a, &prob, cfg);
    return assemble_lower_factor(a);
  };
  const dense::Matrix ref = factor_once(1);
  for (const int threads : {2, 4}) {
    const dense::Matrix got = factor_once(threads);
    double max_diff = 0.0;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        max_diff = std::max(max_diff, std::abs(got(i, j) - ref(i, j)));
    EXPECT_EQ(max_diff, 0.0) << "ws factor diverged at " << threads
                             << " threads";
  }
}

TEST(WsScheduler, NestedBandCholeskyBitwiseMatchesSequentialOracle) {
  // Tile kernels at b = 192 put the dense-band macro-kernels above the
  // 64^3 nested cutoff, so the runs exercise child-task fan-out from
  // inside the task bodies. The factor must stay bitwise identical to a
  // 1-worker run (where the spawning worker drains its own children) —
  // the nested decomposition is branch-stable by construction — and
  // across an 8-seed chaos sweep, whose children get stolen too.
  const int n = 384;
  const int b = 192;
  const double tol = 1e-6;
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DMatern, n, 17, 1e-1);
  auto factor_once = [&](int threads, std::uint64_t chaos_seed) {
    auto a = tlr::TlrMatrix::from_problem_parallel(prob, b, {tol, 1 << 30},
                                                   threads, 1);
    core::CholeskyConfig cfg;
    cfg.acc = {tol, 1 << 30};
    cfg.band_size = 2;
    cfg.nthreads = threads;
    cfg.perturb = chaos_seed != 0 ? rt::PerturbConfig::with_seed(chaos_seed)
                                  : rt::PerturbConfig{};
    cfg.faults = resil::FaultConfig{};
    cfg.watchdog = resil::WatchdogConfig{};
    core::factorize(a, &prob, cfg);
    return assemble_lower_factor(a);
  };
  const dense::Matrix ref = factor_once(1, 0);
  const auto expect_same = [&](const dense::Matrix& got,
                               const std::string& what) {
    double max_diff = 0.0;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        max_diff = std::max(max_diff, std::abs(got(i, j) - ref(i, j)));
    EXPECT_EQ(max_diff, 0.0) << what << " diverged from the oracle";
  };
  for (const int threads : {2, 4})
    expect_same(factor_once(threads, 0),
                "nested at " + std::to_string(threads) + " threads");
  for (std::uint64_t s = 1; s <= 8; ++s)
    expect_same(factor_once(4, s), "chaos seed " + std::to_string(s));
}

TEST(WsScheduler, DefaultFactorizeSplitsBandTilesOnlyThroughChildren) {
  // The default configuration splits a large dense band tile one way: the
  // graph stays the plain tile algorithm, and the tile kernels fan out
  // nested children inside their task bodies.
  const int nt = 3;
  const int b = 256;
  const double tol = 1e-6;
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DMatern, nt * b, 17, 1e-1);
  auto a = tlr::TlrMatrix::from_problem(prob, b, {tol, 1 << 30}, 1);
  core::CholeskyConfig cfg;
  cfg.acc = {tol, 1 << 30};
  cfg.band_size = 2;
  cfg.nthreads = 4;
  cfg.perturb = rt::PerturbConfig{};
  cfg.faults = resil::FaultConfig{};
  cfg.watchdog = resil::WatchdogConfig{};
  const auto res = core::factorize(a, &prob, cfg);
  EXPECT_EQ(res.stats.tasks, nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6);
  EXPECT_GT(res.exec.sched.nested_spawned, 0);
}

// ---------------------------------------------------- parallel tile phases
// Compression (from_problem_parallel, and the outside-in build that picks
// the band while compressing, as evaluate_mle runs them) and band
// regeneration (densify_band, as factorize runs it) hand each tile to one
// task of a thread pool. All must be bitwise independent of the thread
// count and of the timing; the "scheduler" label runs the pools under TSan.

TEST(ParallelTiles, EvaluateMleBitwiseIndependentOfThreads) {
  const int n = 320;
  const auto prob = stars::make_st3d_matern(n, 1.0, 0.1, 0.5, 42, 1e-2);
  Rng rng(23);
  std::vector<double> z(static_cast<std::size_t>(n));
  for (double& v : z) v = rng.gaussian();
  core::CholeskyConfig cfg;
  cfg.acc = {1e-6, 1 << 30};
  cfg.band_size = 2;  // a forced band, generated dense
  auto evaluate = [&](int threads) {
    cfg.nthreads = threads;
    return core::evaluate_mle(prob, z, 40, cfg);
  };
  const core::MleEvaluation one = evaluate(1);
  const core::MleEvaluation two = evaluate(2);
  ASSERT_EQ(one.cholesky.band_size, 2);
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(one.log_likelihood), bits(two.log_likelihood));
  EXPECT_EQ(bits(one.logdet), bits(two.logdet));
  EXPECT_EQ(bits(one.quadratic), bits(two.quadratic));

  // Auto band: the band is picked while compressing. At every worker count
  // the result is bitwise that of compressing every tile, then tuning and
  // regenerating in factorize (the sequence ptlr_bench replays).
  cfg.band_size = 0;
  cfg.nthreads = 2;
  auto full = tlr::TlrMatrix::from_problem_parallel(prob, 40, cfg.acc, 2);
  const core::CholeskyResult tuned = core::factorize(full, &prob, cfg);
  ASSERT_GT(tuned.band_size, 1);
  const double ll = core::log_likelihood(full, z);
  for (const int threads : {1, 2, 4}) {
    const core::MleEvaluation ev = evaluate(threads);
    EXPECT_EQ(ev.band.band_size, tuned.band_size) << threads;
    EXPECT_EQ(ev.cholesky.band_size, tuned.band_size) << threads;
    EXPECT_EQ(ev.cholesky.regen_seconds, 0.0) << threads;
    EXPECT_FALSE(ev.band.flops.empty()) << threads;
    EXPECT_EQ(bits(ev.logdet), bits(core::log_det(full))) << threads;
    EXPECT_EQ(bits(ev.log_likelihood), bits(ll)) << threads;
  }
}

TEST(ParallelTiles, BandRegenerationBitwiseIndependentOfThreads) {
  const int n = 480;
  const int b = 48;
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DMatern, n, 19, 1e-1);
  const auto base = tlr::TlrMatrix::from_problem(prob, b, {1e-6, 1 << 30});
  const stars::CovarianceProblem* regens[] = {&prob, nullptr};
  for (const stars::CovarianceProblem* regen : regens) {
    auto one = base, four = base;
    one.densify_band(4, regen, 1);
    four.densify_band(4, regen, 4);
    EXPECT_EQ(four.band_size(), 4);
    for (int i = 0; i < base.nt(); ++i)
      for (int j = 0; j <= i; ++j) {
        EXPECT_EQ(four.at(i, j).is_dense(), i - j < 4);
        EXPECT_EQ(tlr::tile_to_bytes(one.at(i, j)),
                  tlr::tile_to_bytes(four.at(i, j)))
            << "tile (" << i << ", " << j << ")"
            << (regen != nullptr ? " regenerated" : " expanded");
      }
  }
}

namespace {

// st-3D-exp's covariance, counting the columns the generator asks for; its
// value at distance `bad` (none by default) is NaN.
class CountingKernel final : public stars::CovarianceKernel {
 public:
  explicit CountingKernel(double bad = -1.0) : bad_(bad) {}
  double operator()(double r) const override {
    return r == bad_ ? std::numeric_limits<double>::quiet_NaN()
                     : inner_(r);
  }
  void eval(const double* r, double* out, int n) const override {
    columns.fetch_add(1, std::memory_order_relaxed);
    CovarianceKernel::eval(r, out, n);
  }
  [[nodiscard]] double variance() const override { return 1.0; }
  mutable std::atomic<int> columns{0};

 private:
  double bad_;
  stars::Matern inner_{1.0, 0.1, 0.5};
};

}  // namespace

TEST(ParallelTiles, WorkerErrorReachesTheCaller) {
  // An infinite variance makes every off-diagonal tile non-finite, which
  // compress() rejects; the error must surface on the calling thread, not
  // end the program from a worker.
  const auto prob = stars::make_st3d_matern(
      256, std::numeric_limits<double>::infinity(), 0.5, 0.5, 7, 1e-1);
  EXPECT_THROW(
      tlr::TlrMatrix::from_problem_parallel(prob, 32, {1e-4, 1 << 30}, 4),
      Error);
  EXPECT_THROW(core::build_auto_band(prob, 32, {1e-4, 1 << 30}, 4), Error);

  // The outside-in build: only tile (nt-1, 0), the first one claimed,
  // holds a NaN (the distance between the last and the first point). One
  // worker stops right there; with four, the others stop claiming once it
  // throws, long before the 496 off-diagonal tiles are done.
  const int n = 2048, b = 64;
  Rng rng(5);
  auto points = stars::grid3d(n, rng);
  const double bad = stars::distance(points.back(), points.front());
  for (const int threads : {1, 4}) {
    auto kernel = std::make_shared<CountingKernel>(bad);
    const stars::CovarianceProblem poisoned(points, kernel, 1e-2);
    EXPECT_THROW(core::build_auto_band(poisoned, b, {1e-6, 1 << 30}, threads),
                 Error)
        << threads;
    const int tiles = kernel->columns.load() / b;
    if (threads == 1) {
      EXPECT_EQ(tiles, 1);
    } else {
      EXPECT_GE(tiles, 1);
      EXPECT_LT(tiles, 496 / 2);
    }
  }
}

TEST(ParallelTiles, OutsideInBuildStopsClaimingAtThePick) {
  // One worker generates each tile on the sub-diagonals from the outermost
  // through the exit once (compressed) and each band tile once (dense), and
  // nothing else. More workers keep claiming while the last tile of a
  // sub-diagonal finishes, so how many inner tiles they compress in vain
  // depends on timing; the tiles do not.
  const int n = 1536, b = 64, nt = n / b;
  Rng rng(42);
  const auto points = stars::grid3d(n, rng);
  auto tiles_from = [&](int exit, int band) {
    int count = 0;
    for (int i = 0; i < nt; ++i)
      for (int j = 0; j <= i; ++j)
        count += (i - j >= std::max(exit, 1) ? 1 : 0) + (i - j < band ? 1 : 0);
    return count;
  };
  std::vector<std::vector<char>> first;
  for (const int threads : {1, 2, 4}) {
    auto kernel = std::make_shared<CountingKernel>();
    const stars::CovarianceProblem prob(points, kernel, 1e-2);
    core::BandScan scan;
    const auto m =
        core::build_auto_band(prob, b, {1e-6, 1 << 30}, threads, 0.67, &scan);
    const int exit = scan.band_size - 1;
    ASSERT_GT(exit, 1) << threads;
    const int expected = tiles_from(exit, scan.band_size);
    const int tiles = kernel->columns.load() / b;
    if (threads == 1) {
      EXPECT_EQ(tiles, expected);
    } else {
      EXPECT_GE(tiles, expected) << threads;
    }
    std::size_t k = 0;
    for (int i = 0; i < nt; ++i)
      for (int j = 0; j <= i; ++j, ++k) {
        EXPECT_EQ(m.at(i, j).is_lowrank(), i - j >= scan.band_size);
        if (threads == 1) {
          first.push_back(tlr::tile_to_bytes(m.at(i, j)));
        } else {
          EXPECT_EQ(tlr::tile_to_bytes(m.at(i, j)), first[k])
              << threads << " threads, tile (" << i << ", " << j << ")";
        }
      }
  }
}
