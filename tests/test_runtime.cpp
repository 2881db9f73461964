// Unit tests for ptlr::rt — dataflow graph, executor, distributions,
// virtual-cluster simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>

#include "common/error.hpp"
#include "obs/report.hpp"
#include "runtime/distribution.hpp"
#include "runtime/executor.hpp"
#include "runtime/simulator.hpp"
#include "runtime/taskgraph.hpp"
#include "support/obs_scope.hpp"

using namespace ptlr::rt;
using ptlr::testing::ObsScope;
namespace obs = ptlr::obs;

namespace {

TaskInfo named(const std::string& name) {
  TaskInfo t;
  t.name = name;
  return t;
}

// named(prefix + i), appended: GCC 12 misreads "w" + std::to_string(i) as
// an overlapping copy (-Wrestrict).
TaskInfo named(const char* prefix, int i) {
  TaskInfo t;
  t.name = prefix;
  t.name += std::to_string(i);
  return t;
}

}  // namespace

// ----------------------------------------------------------- TaskGraph ----

TEST(TaskGraph, ReadAfterWriteDependency) {
  TaskGraph g;
  const DataKey x = make_key(0, 1, 1);
  const auto w = g.add_task(named("w"), {}, {{x}});
  const auto r = g.add_task(named("r"), {{x}}, {});
  EXPECT_EQ(g.num_predecessors(r), 1);
  ASSERT_EQ(g.successors(w).size(), 1u);
  EXPECT_EQ(g.successors(w)[0], r);
}

TEST(TaskGraph, WriteAfterReadDependency) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  g.add_task(named("w0"), {}, {{x}});
  const auto r1 = g.add_task(named("r1"), {{x}}, {});
  const auto r2 = g.add_task(named("r2"), {{x}}, {});
  const auto w1 = g.add_task(named("w1"), {}, {{x}});
  // w1 must wait for both readers (anti-dependency).
  EXPECT_EQ(g.num_predecessors(w1), 2);
  EXPECT_EQ(g.successors(r1).back(), w1);
  EXPECT_EQ(g.successors(r2).back(), w1);
}

TEST(TaskGraph, WriteAfterWriteDependency) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  const auto w0 = g.add_task(named("w0"), {}, {{x}});
  const auto w1 = g.add_task(named("w1"), {}, {{x}});
  EXPECT_EQ(g.num_predecessors(w1), 1);
  EXPECT_EQ(g.successors(w0)[0], w1);
}

TEST(TaskGraph, ReadModifyWriteChainsSequentially) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 5; ++i) g.add_task(named("rmw"), {{x}}, {{x}});
  EXPECT_EQ(g.critical_path_length(), 5);
}

TEST(TaskGraph, IndependentReadersDoNotDependOnEachOther) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  g.add_task(named("w"), {}, {{x}});
  g.add_task(named("r1"), {{x}}, {});
  g.add_task(named("r2"), {{x}}, {});
  EXPECT_EQ(g.critical_path_length(), 2);  // w -> {r1, r2} in parallel
}

TEST(TaskGraph, DuplicateEdgesAreCollapsed) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0), y = make_key(0, 0, 1);
  const auto w = g.add_task(named("w"), {}, {{x, y}});
  const auto r = g.add_task(named("r"), {{x, y}}, {});
  EXPECT_EQ(g.successors(w).size(), 1u);
  EXPECT_EQ(g.num_predecessors(r), 1);
}

TEST(TaskGraph, KeyPackingSeparatesSpaces) {
  EXPECT_NE(make_key(0, 1, 2), make_key(1, 1, 2));
  EXPECT_NE(make_key(0, 1, 2), make_key(0, 2, 1));
}

TEST(TaskGraph, EdgeClassificationFollowsOwners) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  TaskInfo a = named("a");
  a.owner = 0;
  TaskInfo b = named("b");
  b.owner = 1;
  TaskInfo c = named("c");
  c.owner = 0;
  g.add_task(std::move(a), {}, {{x}});
  g.add_task(std::move(b), {{x}}, {});
  g.add_task(std::move(c), {}, {{x}});
  const auto s = g.classify_edges();
  EXPECT_EQ(s.remote, 2);  // a->b (RAW remote), b->c (WAR remote)
  EXPECT_EQ(s.local, 0);   // a->c WAW is covered transitively via b
}

// ------------------------------------------------------------ Executor ----

TEST(Executor, RunsAllTasksRespectingDependencies) {
  TaskGraph g;
  std::atomic<int> counter{0};
  std::vector<int> order(20, -1);
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 20; ++i) {
    TaskInfo t = named("t", i);
    t.fn = [&, i] { order[static_cast<std::size_t>(i)] = counter++; };
    g.add_task(std::move(t), {{x}}, {{x}});  // serial chain
  }
  execute(g, 4);
  for (int i = 1; i < 20; ++i) EXPECT_GT(order[i], order[i - 1]);
}

TEST(Executor, ParallelTasksAllExecute) {
  TaskGraph g;
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    TaskInfo t = named("p");
    t.fn = [&] { count++; };
    g.add_task(std::move(t), {}, {});
  }
  execute(g, 4);
  EXPECT_EQ(count.load(), 100);
}

TEST(Executor, DiamondDependency) {
  TaskGraph g;
  const DataKey a = make_key(0, 0, 0), b = make_key(0, 0, 1),
                c = make_key(0, 0, 2);
  std::vector<int> log;
  std::mutex mu;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lock(mu);
    log.push_back(v);
  };
  TaskInfo t0 = named("src");
  t0.fn = [&] { push(0); };
  g.add_task(std::move(t0), {}, {{a}});
  TaskInfo t1 = named("l");
  t1.fn = [&] { push(1); };
  g.add_task(std::move(t1), {{a}}, {{b}});
  TaskInfo t2 = named("r");
  t2.fn = [&] { push(2); };
  g.add_task(std::move(t2), {{a}}, {{c}});
  TaskInfo t3 = named("sink");
  t3.fn = [&] { push(3); };
  g.add_task(std::move(t3), {{b, c}}, {});
  execute(g, 2);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.front(), 0);
  EXPECT_EQ(log.back(), 3);
}

TEST(Executor, PropagatesTaskExceptions) {
  TaskGraph g;
  TaskInfo t = named("boom");
  t.fn = [] { throw ptlr::Error("kernel failed"); };
  g.add_task(std::move(t), {}, {});
  EXPECT_THROW(execute(g, 2), ptlr::Error);
}

TEST(Executor, PriorityOrdersReadyTasksOnOneWorker) {
  // The engine bins priorities into kSchedBands bands and drains higher
  // bands first. Priorities 0..3 span the range evenly, one per band, so
  // one worker runs them strictly highest first.
  static_assert(kSchedBands == 4);
  TaskGraph g;
  std::vector<int> log;
  for (int i = 0; i < 4; ++i) {
    TaskInfo t = named("t");
    t.priority = i;  // later-inserted tasks have higher priority
    t.fn = [&log, i] { log.push_back(i); };
    g.add_task(std::move(t), {}, {});
  }
  // Chaos mode inverts priorities on purpose; this checks the plain order.
  ExecOptions opts;
  opts.perturb = PerturbConfig{};
  execute(g, 1, opts);
  EXPECT_EQ(log, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Executor, TraceRecordsEveryTask) {
  TaskGraph g;
  for (int i = 0; i < 10; ++i) {
    TaskInfo t = named("t");
    t.panel = i / 5;
    t.fn = [] {};
    g.add_task(std::move(t), {}, {});
  }
  const ObsScope traced;
  auto res = execute(g, 2);
  const auto spans = obs::run_spans(res.run);
  EXPECT_EQ(spans.size(), 10u);
  auto releases = obs::panel_release_times(spans);
  EXPECT_EQ(releases.size(), 2u);
}

TEST(Executor, EmptyGraphIsFine) {
  TaskGraph g;
  const ObsScope traced;
  auto res = execute(g, 2);
  EXPECT_EQ(obs::run_spans(res.run).size(), 0u);
}

// -------------------------------------------------------- Distribution ----

TEST(Distribution, TwoDBlockCyclicCoversAllProcesses) {
  TwoDBlockCyclic d(2, 3);
  EXPECT_EQ(d.nproc(), 6);
  std::vector<int> hit(6, 0);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j <= i; ++j) {
      const int o = d.owner(i, j);
      ASSERT_GE(o, 0);
      ASSERT_LT(o, 6);
      hit[static_cast<std::size_t>(o)]++;
    }
  for (int o = 0; o < 6; ++o) EXPECT_GT(hit[o], 0);
}

TEST(Distribution, OneDBlockCyclicSpreadsSubdiagonal) {
  OneDBlockCyclic d(4);
  // Tiles along sub-diagonal i-j = 2: owners cycle over all processes.
  std::vector<int> owners;
  for (int j = 0; j < 8; ++j) owners.push_back(d.owner(j + 2, j));
  std::sort(owners.begin(), owners.end());
  EXPECT_EQ(std::unique(owners.begin(), owners.end()) - owners.begin(), 4);
}

TEST(Distribution, BandDistributionSplitsBandAndOffBand) {
  BandDistribution d(2, 2, 3);
  // On-band: row-based over all 4 processes.
  EXPECT_EQ(d.owner(5, 4), 5 % 4);
  EXPECT_EQ(d.owner(6, 4), 6 % 4);
  // Off-band: 2DBCDD.
  TwoDBlockCyclic ref(2, 2);
  EXPECT_EQ(d.owner(9, 2), ref.owner(9, 2));
}

TEST(Distribution, BandRowMappingKeepsPanelTrsmsParallel) {
  // Dense TRSMs of one panel (same column k, rows k+1..k+band) must land on
  // different processes — the paper's balanced panel rationale.
  BandDistribution d(2, 2, 4);
  const int k = 3;
  std::vector<int> owners;
  for (int i = k + 1; i < k + 4; ++i) owners.push_back(d.owner(i, k));
  std::sort(owners.begin(), owners.end());
  EXPECT_EQ(std::unique(owners.begin(), owners.end()) - owners.begin(), 3);
}

TEST(Distribution, SquareGridFactorization) {
  EXPECT_EQ(square_grid(16), (std::pair{4, 4}));
  EXPECT_EQ(square_grid(8), (std::pair{2, 4}));
  EXPECT_EQ(square_grid(7), (std::pair{1, 7}));
  EXPECT_EQ(square_grid(12), (std::pair{3, 4}));
}

// ----------------------------------------------------------- Simulator ----

TEST(Simulator, SerialChainMakespanIsSumOfDurations) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 10; ++i) {
    TaskInfo t = named("t");
    t.duration = 0.5;
    t.owner = 0;
    g.add_task(std::move(t), {{x}}, {{x}});
  }
  auto res = simulate(g, {1, 4, {}});
  EXPECT_NEAR(res.makespan, 5.0, 1e-12);
}

TEST(Simulator, IndependentTasksScaleWithCores) {
  auto build = [] {
    TaskGraph g;
    for (int i = 0; i < 16; ++i) {
      TaskInfo t = named("t");
      t.duration = 1.0;
      t.owner = 0;
      g.add_task(std::move(t), {}, {});
    }
    return g;
  };
  auto g1 = build();
  auto g4 = build();
  EXPECT_NEAR(simulate(g1, {1, 1, {}}).makespan, 16.0, 1e-12);
  EXPECT_NEAR(simulate(g4, {1, 4, {}}).makespan, 4.0, 1e-12);
}

TEST(Simulator, RemoteEdgePaysCommunication) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  TaskInfo a = named("a");
  a.duration = 1.0;
  a.owner = 0;
  a.output_bytes = 8'000'000;  // 1e-3 s at 8 GB/s
  g.add_task(std::move(a), {}, {{x}});
  TaskInfo b = named("b");
  b.duration = 1.0;
  b.owner = 1;
  g.add_task(std::move(b), {{x}}, {});
  CommModel comm;
  auto res = simulate(g, {2, 1, comm});
  EXPECT_NEAR(res.makespan, 2.0 + comm.cost(8'000'000), 1e-9);
  EXPECT_EQ(res.messages, 1);
  EXPECT_DOUBLE_EQ(res.message_bytes, 8e6);
}

TEST(Simulator, LocalEdgeIsFree) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  TaskInfo a = named("a");
  a.duration = 1.0;
  a.owner = 0;
  a.output_bytes = 1 << 20;
  g.add_task(std::move(a), {}, {{x}});
  TaskInfo b = named("b");
  b.duration = 1.0;
  b.owner = 0;
  g.add_task(std::move(b), {{x}}, {});
  auto res = simulate(g, {2, 1, {}});
  EXPECT_NEAR(res.makespan, 2.0, 1e-12);
  EXPECT_EQ(res.messages, 0);
}

TEST(Simulator, BroadcastCountsOneMessagePerDestinationProcess) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  TaskInfo a = named("src");
  a.duration = 0.1;
  a.owner = 0;
  a.output_bytes = 100;
  g.add_task(std::move(a), {}, {{x}});
  // 6 consumers on 3 distinct remote processes + 2 local ones.
  for (int i = 0; i < 6; ++i) {
    TaskInfo c = named("c");
    c.duration = 0.1;
    c.owner = (i % 4);
    g.add_task(std::move(c), {{x}}, {});
  }
  auto res = simulate(g, {4, 2, {}});
  EXPECT_EQ(res.messages, 3);  // PTG collective: procs 1, 2, 3 once each
}

TEST(Simulator, BusyTimeMatchesDurations) {
  TaskGraph g;
  for (int i = 0; i < 6; ++i) {
    TaskInfo t = named("t");
    t.duration = 2.0;
    t.owner = i % 2;
    g.add_task(std::move(t), {}, {});
  }
  auto res = simulate(g, {2, 3, {}});
  EXPECT_NEAR(res.busy[0], 6.0, 1e-12);
  EXPECT_NEAR(res.busy[1], 6.0, 1e-12);
  EXPECT_NEAR(res.occupancy(0, 3), 1.0, 1e-9);
}

TEST(Simulator, PriorityBreaksTies) {
  TaskGraph g;
  TaskInfo lo = named("lo");
  lo.duration = 1.0;
  lo.priority = 0.0;
  g.add_task(std::move(lo), {}, {});
  TaskInfo hi = named("hi");
  hi.duration = 1.0;
  hi.priority = 10.0;
  g.add_task(std::move(hi), {}, {});
  const ObsScope traced;
  auto res = simulate(g, {1, 1, {}});
  const auto spans = obs::run_spans(res.run);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_LT(spans[1].t0, spans[0].t0);  // hi ran first
}

TEST(Simulator, TraceMatchesMakespan) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 5; ++i) {
    TaskInfo t = named("t");
    t.duration = 0.3;
    t.owner = i % 2;
    t.panel = i;
    g.add_task(std::move(t), {{x}}, {{x}});
  }
  const ObsScope traced;
  auto res = simulate(g, {2, 1, {}});
  const auto spans = obs::run_spans(res.run);
  double max_end = 0;
  for (const auto& ev : spans) max_end = std::max(max_end, ev.t1);
  EXPECT_NEAR(max_end, res.makespan, 1e-12);
  auto release = obs::panel_release_times(spans);
  EXPECT_EQ(release.size(), 5u);
  for (std::size_t i = 1; i < 5; ++i) EXPECT_GT(release[i], release[i - 1]);
}

TEST(Simulator, InvalidOwnerThrows) {
  TaskGraph g;
  TaskInfo t = named("t");
  t.owner = 5;
  g.add_task(std::move(t), {}, {});
  EXPECT_THROW(simulate(g, {2, 1, {}}), ptlr::Error);
}

TEST(Simulator, MoreProcessesReduceMakespanOfWideGraph) {
  auto build = [](int nproc) {
    TaskGraph g;
    for (int i = 0; i < 64; ++i) {
      TaskInfo t = named("t");
      t.duration = 1.0;
      t.owner = i % nproc;
      g.add_task(std::move(t), {}, {});
    }
    return g;
  };
  auto g1 = build(1);
  auto g8 = build(8);
  const double m1 = simulate(g1, {1, 1, {}}).makespan;
  const double m8 = simulate(g8, {8, 1, {}}).makespan;
  EXPECT_NEAR(m1 / m8, 8.0, 1e-9);
}

// --------------------------------------------------- trace export ----

#include <cstdio>
#include <fstream>
#include <sstream>

TEST(Trace, ChromeExportContainsAllTasks) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 4; ++i) {
    TaskInfo t = named("step" + std::to_string(i));
    t.duration = 0.25;
    t.panel = i;
    g.add_task(std::move(t), {{x}}, {{x}});
  }
  const ObsScope traced;
  simulate(g, {1, 1, {}});
  const std::string path = ::testing::TempDir() + "ptlr_trace_test.json";
  obs::write_chrome_trace(path);
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string body = ss.str();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(body.find("step" + std::to_string(i)), std::string::npos);
  }
  EXPECT_NE(body.find("\"ph\": \"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, ChromeExportBadPathThrows) {
  EXPECT_THROW(obs::write_chrome_trace("/nonexistent/dir/x.json"),
               ptlr::Error);
}

TEST(Distribution, ColumnBasedBandForUpperTriangular) {
  BandDistribution d(2, 2, 3, BandOrientation::kColumnBased);
  // On-band (|i-j| < 3): owner follows the column index.
  EXPECT_EQ(d.owner(4, 5), 5 % 4);
  EXPECT_EQ(d.owner(4, 6), 6 % 4);
  // Off-band falls back to 2DBCDD.
  TwoDBlockCyclic ref(2, 2);
  EXPECT_EQ(d.owner(2, 9), ref.owner(2, 9));
}

TEST(Trace, KindBreakdownAggregates) {
  std::vector<obs::Span> trace;
  for (int i = 0; i < 6; ++i) {
    obs::Span ev;
    ev.task = i;
    ev.kind = i % 2;
    ev.t0 = 0.0;
    ev.t1 = i % 2 ? 2.0 : 1.0;
    trace.push_back(ev);
  }
  auto bd = obs::kind_breakdown(trace);
  ASSERT_EQ(bd.size(), 2u);
  EXPECT_EQ(bd[0].kind, 1);  // sorted by time: 3 * 2.0 = 6.0 first
  EXPECT_EQ(bd[0].count, 3);
  EXPECT_DOUBLE_EQ(bd[0].seconds, 6.0);
  EXPECT_DOUBLE_EQ(bd[1].seconds, 3.0);
}

TEST(Simulator, TreeBroadcastDelaysFarDestinations) {
  CommModel flat, tree;
  tree.tree_broadcast = true;
  // First destination: one hop either way.
  EXPECT_DOUBLE_EQ(tree.broadcast_cost(1000, 0), flat.cost(1000));
  // Destination index 5 sits at depth 3 of the binomial tree.
  EXPECT_DOUBLE_EQ(tree.broadcast_cost(1000, 5), 3 * flat.cost(1000));
  // Flat model charges every destination the same.
  EXPECT_DOUBLE_EQ(flat.broadcast_cost(1000, 5), flat.cost(1000));
}

TEST(Simulator, TreeBroadcastIncreasesWideBroadcastMakespan) {
  auto build = [] {
    TaskGraph g;
    const DataKey x = make_key(0, 0, 0);
    TaskInfo src = named("src");
    src.duration = 0.1;
    src.owner = 0;
    src.output_bytes = 80'000'000;  // 10 ms at 8 GB/s
    g.add_task(std::move(src), {}, {{x}});
    for (int p = 1; p < 16; ++p) {
      TaskInfo c = named("c");
      c.duration = 0.1;
      c.owner = p;
      g.add_task(std::move(c), {{x}}, {});
    }
    return g;
  };
  auto g1 = build();
  auto g2 = build();
  SimConfig flat{16, 1, {}};
  SimConfig tree{16, 1, {}};
  tree.comm.tree_broadcast = true;
  EXPECT_GT(simulate(g2, tree).makespan, simulate(g1, flat).makespan);
}

// ------------------------------------------- heterogeneous simulation ----

TEST(Simulator, AcceleratorSpeedsUpPreferringTasks) {
  auto build = [] {
    TaskGraph g;
    const DataKey x = make_key(0, 0, 0);
    for (int i = 0; i < 8; ++i) {
      TaskInfo t = named("dense");
      t.duration = 1.0;
      t.device_class = 1;
      g.add_task(std::move(t), {{x}}, {{x}});  // serial dense chain
    }
    return g;
  };
  auto g_cpu = build();
  auto g_gpu = build();
  SimConfig cpu{1, 2, {}};
  SimConfig gpu{1, 2, {}};
  gpu.accel_per_proc = 1;
  gpu.accel_speedup = 4.0;
  EXPECT_NEAR(simulate(g_cpu, cpu).makespan, 8.0, 1e-12);
  EXPECT_NEAR(simulate(g_gpu, gpu).makespan, 2.0, 1e-12);
}

TEST(Simulator, Class0TasksNeverUseAccelerators) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    TaskInfo t = named("lr");
    t.duration = 1.0;
    t.device_class = 0;
    g.add_task(std::move(t), {}, {});
  }
  SimConfig cfg{1, 1, {}};
  cfg.accel_per_proc = 4;
  cfg.accel_speedup = 100.0;
  const ObsScope traced;
  auto res = simulate(g, cfg);
  EXPECT_NEAR(res.makespan, 4.0, 1e-12);  // single CPU core does them all
  for (const auto& ev : obs::run_spans(res.run)) EXPECT_EQ(ev.worker, 0);
}

TEST(Simulator, DenseTasksFallBackToCpuWhenAcceleratorsBusy) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    TaskInfo t = named("dense");
    t.duration = 1.0;
    t.device_class = 1;
    g.add_task(std::move(t), {}, {});
  }
  SimConfig cfg{1, 3, {}};
  cfg.accel_per_proc = 1;
  cfg.accel_speedup = 2.0;
  // 1 accel (0.5 s each) + 3 CPUs (1 s each): all 4 run at t=0, done at 1.
  EXPECT_NEAR(simulate(g, cfg).makespan, 1.0, 1e-12);
}

// ------------------------------------------------------- mailboxes ----

#include <thread>

#include "runtime/mailbox.hpp"

namespace {

dist::Envelope envelope(std::uint64_t id, std::uint64_t tag,
                        ptlr::Bytes payload) {
  dist::Envelope env;
  env.id = id;
  env.tag = tag;
  env.payload = std::move(payload);
  return env;
}

}  // namespace

TEST(Mailbox, RecvBlocksUntilSendArrives) {
  dist::Mailbox box(1, ptlr::resil::WatchdogConfig{});
  ptlr::Bytes got;
  std::thread receiver([&] { got = box.recv(42); });
  std::thread sender([&] { box.deposit(envelope(1, 42, {'x'})); });
  sender.join();
  receiver.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 'x');
}

TEST(Mailbox, TagsKeepMessagesSeparate) {
  dist::Mailbox box(0, ptlr::resil::WatchdogConfig{});
  box.deposit(envelope(1, 1, {'a'}));
  box.deposit(envelope(2, 2, {'b'}));
  EXPECT_EQ(box.recv(2)[0], 'b');
  EXPECT_EQ(box.recv(1)[0], 'a');
}

TEST(Mailbox, AbortWakesBlockedReceiver) {
  // abort() races a receiver on its way into the wait, round after round.
  // Each round waits a bounded time for the receiver to throw, so a lost
  // wakeup fails the test instead of hanging it.
  for (int round = 0; round < 10000; ++round) {
    dist::Mailbox box(1, ptlr::resil::WatchdogConfig{});
    std::atomic<bool> threw{false};
    std::promise<void> done;
    std::future<void> finished = done.get_future();
    std::thread receiver([&] {
      try {
        box.recv(7);
      } catch (const ptlr::Error&) {
        threw.store(true);
      }
      done.set_value();
    });
    box.abort();
    if (finished.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      box.deposit(envelope(1, 7, {'x'}));  // wake the stranded receiver
      receiver.join();
      FAIL() << "abort() lost its wakeup in round " << round;
    }
    receiver.join();
    ASSERT_TRUE(threw.load()) << "round " << round;
  }
}

TEST(Mailbox, FailWakesBlockedReceiverWithItsReason) {
  // The socket transport fails its inbox when a peer is lost; a rank
  // blocked in recv() must then wake with the reason, not hang. fail()
  // races the receiver like abort() above, with no watchdog to rescue a
  // lost wakeup.
  const std::string reason = "connection to rank 0 lost";
  const std::uint64_t tag = dist::make_tag(0, 1, 2, 3);
  for (int round = 0; round < 10000; ++round) {
    dist::Mailbox box(1, ptlr::resil::WatchdogConfig{});
    std::string what;
    std::promise<void> done;
    std::future<void> finished = done.get_future();
    std::thread receiver([&] {
      try {
        box.recv(tag, 0);
      } catch (const ptlr::Error& e) {
        what = e.what();
      }
      done.set_value();
    });
    box.fail(reason);
    if (finished.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      box.abort();  // wake the stranded receiver to join it
      receiver.join();
      FAIL() << "fail() lost its wakeup in round " << round;
    }
    receiver.join();
    ASSERT_NE(what.find(reason), std::string::npos)
        << "round " << round << ": " << what;
  }
}

// ------------------------------------------------- work stealing ----

TEST(Simulator, WorkStealingBalancesSkewedLoad) {
  // All work initially on process 0; stealing lets the idle peers help.
  auto build = [] {
    TaskGraph g;
    for (int i = 0; i < 32; ++i) {
      TaskInfo t = named("w");
      t.duration = 1.0;
      t.owner = 0;
      t.output_bytes = 800;  // cheap to ship
      g.add_task(std::move(t), {}, {});
    }
    return g;
  };
  auto g0 = build();
  auto g1 = build();
  SimConfig off{4, 2, {}};
  SimConfig on{4, 2, {}};
  on.work_stealing = true;
  const double t_off = simulate(g0, off).makespan;
  const double t_on = simulate(g1, on).makespan;
  EXPECT_NEAR(t_off, 16.0, 1e-9);  // 32 tasks on 2 cores
  EXPECT_LT(t_on, 0.5 * t_off);    // peers absorb most of the skew
}

TEST(Simulator, WorkStealingPaysCommunication) {
  // One expensive-to-ship task: stealing must charge the transfer.
  TaskGraph g;
  TaskInfo a = named("a");
  a.duration = 1.0;
  a.owner = 0;
  g.add_task(std::move(a), {}, {});
  TaskInfo b = named("b");
  b.duration = 1.0;
  b.owner = 0;
  b.output_bytes = 8'000'000'000ull;  // 1 s at 8 GB/s
  g.add_task(std::move(b), {}, {});
  SimConfig on{2, 1, {}};
  on.work_stealing = true;
  auto res = simulate(g, on);
  // Proc 1 steals task b but pays ~1 s shipping: no worse than serial.
  EXPECT_LE(res.makespan, 2.0 + 1e-3);  // + latency
  EXPECT_GE(res.makespan, 1.0);
}

TEST(Simulator, WorkStealingPreservesDependencies) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 10; ++i) {
    TaskInfo t = named("chain");
    t.duration = 0.5;
    t.owner = 0;
    g.add_task(std::move(t), {{x}}, {{x}});
  }
  SimConfig on{4, 1, {}};
  on.work_stealing = true;
  const ObsScope traced;
  auto res = simulate(g, on);
  const auto spans = obs::run_spans(res.run);
  // A serial chain cannot go faster than its length, stealing or not.
  EXPECT_GE(res.makespan, 5.0 - 1e-9);
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_GE(spans[i].t0 + 1e-12, spans[i - 1].t1);
}

// ------------------------------------------- graph validation ----

TEST(TaskGraph, AddDependencyCreatesControlEdge) {
  TaskGraph g;
  const auto a = g.add_task(named("a"), {}, {});
  const auto b = g.add_task(named("b"), {}, {});
  g.add_dependency(a, b);
  EXPECT_EQ(g.num_predecessors(b), 1);
  ASSERT_EQ(g.successors(a).size(), 1u);
  EXPECT_EQ(g.successors(a)[0], b);
  g.validate();  // forward control edges are a well-formed graph
}

TEST(TaskGraph, AddDependencyRejectsDanglingAndSelf) {
  TaskGraph g;
  const auto a = g.add_task(named("a"), {}, {});
  EXPECT_THROW(g.add_dependency(a, 7), ptlr::Error);
  EXPECT_THROW(g.add_dependency(-1, a), ptlr::Error);
  EXPECT_THROW(g.add_dependency(a, a), ptlr::Error);
}

TEST(TaskGraph, ValidateAcceptsDataflowGraphs) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0), y = make_key(0, 0, 1);
  g.add_task(named("w"), {}, {{x}});
  g.add_task(named("r"), {{x}}, {{y}});
  g.add_task(named("rw"), {{x, y}}, {{x}});
  g.validate();
}

TEST(TaskGraph, ValidateRejectsCycles) {
  TaskGraph g;
  const auto a = g.add_task(named("a"), {}, {});
  const auto b = g.add_task(named("b"), {}, {});
  const auto c = g.add_task(named("c"), {}, {});
  g.add_dependency(a, b);
  g.add_dependency(b, c);
  g.add_dependency(c, a);
  try {
    g.validate();
    FAIL() << "cycle not detected";
  } catch (const ptlr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
  }
}

TEST(Executor, RejectsCyclicGraphInsteadOfHanging) {
  // Before validation, this graph deadlocked the pool: no task ever became
  // ready, workers waited forever.
  TaskGraph g;
  std::atomic<int> ran{0};
  for (int i = 0; i < 2; ++i) {
    TaskInfo t = named("loop" + std::to_string(i));
    t.fn = [&] { ran++; };
    g.add_task(std::move(t), {}, {});
  }
  g.add_dependency(0, 1);
  g.add_dependency(1, 0);
  EXPECT_THROW(execute(g, 2), ptlr::Error);
  EXPECT_EQ(ran.load(), 0);  // rejected before launching workers
}

// ------------------------------------- exception propagation ----

TEST(Executor, MidGraphThrowRethrowsAfterPoolDrains) {
  // A wide stage with one poisoned task; everything downstream of the
  // thrower must not run, the pool must drain (no deadlocked workers), and
  // the original exception must surface on the calling thread.
  TaskGraph g;
  const DataKey poison = make_key(0, 0, 99);
  std::atomic<int> ran{0};
  std::atomic<int> downstream{0};
  for (int i = 0; i < 16; ++i) {
    TaskInfo t = named("w", i);
    t.fn = [&] { ran++; };
    g.add_task(std::move(t), {}, {});
  }
  TaskInfo boom = named("boom");
  boom.fn = [] { throw ptlr::NumericalError("tile not SPD", 3); };
  g.add_task(std::move(boom), {}, {{poison}});
  for (int i = 0; i < 8; ++i) {
    TaskInfo t = named("after" + std::to_string(i));
    t.fn = [&] { downstream++; };
    g.add_task(std::move(t), {{poison}}, {});
  }
  try {
    execute(g, 4);
    FAIL() << "exception was swallowed";
  } catch (const ptlr::NumericalError& e) {
    EXPECT_EQ(e.info(), 3);  // concrete type and payload preserved
  }
  EXPECT_EQ(downstream.load(), 0);
  EXPECT_LE(ran.load(), 16);
}

TEST(Executor, ConcurrentThrowsPropagateExactlyOne) {
  TaskGraph g;
  for (int i = 0; i < 12; ++i) {
    TaskInfo t = named("boom" + std::to_string(i));
    t.fn = [i] { throw ptlr::Error("boom " + std::to_string(i)); };
    g.add_task(std::move(t), {}, {});
  }
  EXPECT_THROW(execute(g, 4), ptlr::Error);
}

TEST(Executor, RepeatedFailingRunsLeaveNoStuckState) {
  // Shake out leaked workers / poisoned synchronization: a failing graph
  // executed many times must keep draining promptly.
  for (int round = 0; round < 20; ++round) {
    TaskGraph g;
    const DataKey x = make_key(0, 0, 0);
    TaskInfo a = named("ok");
    a.fn = [] {};
    g.add_task(std::move(a), {}, {{x}});
    TaskInfo b = named("boom");
    b.fn = [] { throw ptlr::Error("round failure"); };
    g.add_task(std::move(b), {{x}}, {{x}});
    TaskInfo c = named("never");
    c.fn = [] { FAIL() << "task after the thrower ran"; };
    g.add_task(std::move(c), {{x}}, {});
    EXPECT_THROW(execute(g, 3), ptlr::Error);
  }
}

TEST(Executor, ExceptionPropagatesUnderPerturbation) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TaskGraph g;
    std::atomic<int> ran{0};
    for (int i = 0; i < 24; ++i) {
      TaskInfo t = named("w", i);
      t.fn = [&] { ran++; };
      g.add_task(std::move(t), {}, {});
    }
    TaskInfo boom = named("boom");
    boom.fn = [] { throw ptlr::Error("chaos boom"); };
    g.add_task(std::move(boom), {}, {});
    ExecOptions opts;
    opts.perturb = PerturbConfig::with_seed(seed);
    EXPECT_THROW(execute(g, 4, opts), ptlr::Error);
  }
}

// ------------------------------------------------- chaos mode ----

TEST(Executor, PerturbedRunStillRespectsSerialChain) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TaskGraph g;
    std::atomic<int> counter{0};
    std::vector<int> order(20, -1);
    const DataKey x = make_key(0, 0, 0);
    for (int i = 0; i < 20; ++i) {
      TaskInfo t = named("t", i);
      t.fn = [&, i] { order[static_cast<std::size_t>(i)] = counter++; };
      g.add_task(std::move(t), {{x}}, {{x}});  // serial chain
    }
    ExecOptions opts;
    opts.perturb = PerturbConfig::with_seed(seed);
    execute(g, 4, opts);
    for (int i = 1; i < 20; ++i) EXPECT_GT(order[i], order[i - 1]);
  }
}

TEST(Executor, TraceStampsGiveHappensBeforeOrder) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 10; ++i) {
    TaskInfo t = named("t");
    t.fn = [] {};
    g.add_task(std::move(t), {{x}}, {{x}});
  }
  const ObsScope traced;
  auto res = execute(g, 3);
  const auto spans = obs::run_spans(res.run);
  ASSERT_EQ(spans.size(), 10u);
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_LT(spans[i - 1].seq1, spans[i].seq0);
}

TEST(Mailbox, DeliversEachTagInDepositOrder) {
  // Chaos-mode delays let the receiver race the depositor and interleave
  // two tags, but must never corrupt or reorder one tag's FIFO.
  dist::Mailbox box(1, ptlr::resil::WatchdogConfig{});
  Perturber perturber(PerturbConfig::with_seed(5));
  std::thread depositor([&] {
    for (char c = 0; c < 10; ++c) {
      perturber.maybe_delay_delivery();
      box.deposit(envelope(2 * static_cast<std::uint64_t>(c) + 1, 42, {c}));
      box.deposit(envelope(2 * static_cast<std::uint64_t>(c) + 2, 43, {c}));
    }
  });
  for (char c = 0; c < 10; ++c) EXPECT_EQ(box.recv(42)[0], c);
  for (char c = 0; c < 10; ++c) EXPECT_EQ(box.recv(43)[0], c);
  depositor.join();
}
