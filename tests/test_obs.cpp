// Tests for the observability layer (src/obs): golden-trace schema checks,
// counter exactness against the Table I flop models, counters as span
// reductions matching the drivers' own accounting, run selection, simulated
// spans, zero-footprint when disabled, mailbox comm events, and the
// end-of-run reporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/cholesky.hpp"
#include "core/dist_cholesky.hpp"
#include "net/loopback.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "runtime/simulator.hpp"
#include "support/mini_json.hpp"

using namespace ptlr;
namespace mj = ptlr::testing::json;

namespace {

// Every test starts and ends with the global obs state quiesced and empty,
// so suites compose in one process regardless of order.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::enable(false);
    obs::reset();
  }
  void TearDown() override {
    obs::enable(false);
    obs::reset();
  }
};

struct RunSetup {
  stars::CovarianceProblem prob;
  tlr::TlrMatrix mat;
  core::CholeskyConfig cfg;
};

// A fixed small band Cholesky (nt = n/b tiles per side, forced BAND_SIZE)
// used by the trace and counter tests. No perturbation env dependence: the
// suite asserts schedule-independent facts only.
RunSetup setup_run(int n, int b, int band) {
  const compress::Accuracy acc{1e-6, 1 << 30};
  auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, n);
  auto mat = tlr::TlrMatrix::from_problem(prob, b, acc, 1);
  core::CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = band;
  cfg.nthreads = 2;
  return {std::move(prob), std::move(mat), cfg};
}

// A small DAG for the virtual cluster: a chain of panels, each feeding a
// fan of independent updates, spread over 4 processes.
rt::TaskGraph small_sim_graph() {
  rt::TaskGraph g;
  for (int k = 0; k < 6; ++k) {
    rt::TaskInfo p;
    p.name = "panel" + std::to_string(k);
    p.kind = 0;
    p.panel = k;
    p.owner = k % 4;
    p.duration = 0.5;
    g.add_task(std::move(p), {{rt::make_key(0, 0, 0)}},
               {{rt::make_key(0, 0, 0)}});
    for (int i = 0; i < 5; ++i) {
      rt::TaskInfo u;
      u.name = "update" + std::to_string(k) + "_" + std::to_string(i);
      u.kind = 9;
      u.panel = k;
      u.owner = (k + i) % 4;
      u.duration = 0.25 + 0.1 * i;
      u.output_bytes = 4096;
      g.add_task(std::move(u), {{rt::make_key(0, 0, 0)}},
                 {{rt::make_key(1, static_cast<std::uint32_t>(i), 0)}});
    }
  }
  return g;
}

}  // namespace

// ------------------------------------------------------- golden trace ----

TEST_F(ObsTest, GoldenTraceIsSchemaValidAndComplete) {
  obs::enable(true);
  auto r = setup_run(256, 64, 2);  // 4x4 tile grid
  const auto res = core::factorize(r.mat, &r.prob, r.cfg);
  const std::string path = ::testing::TempDir() + "ptlr_golden_trace.json";
  obs::write_chrome_trace(path);
  obs::enable(false);

  const mj::Value doc = mj::parse_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.has("traceEvents"));
  const mj::Value& evs = doc.at("traceEvents");
  ASSERT_TRUE(evs.is_array());

  long long task_events = 0;
  bool saw_run_metadata = false;
  // Within one (pid, tid) lane, timestamps must be monotone: each worker
  // records its spans in execution order on a steady clock.
  std::map<std::pair<double, double>, double> last_ts;
  for (const mj::Value& e : evs.array) {
    ASSERT_TRUE(e.is_object());
    for (const char* key : {"name", "ph", "pid", "tid"})
      ASSERT_TRUE(e.has(key)) << "event missing " << key;
    ASSERT_TRUE(e.at("ph").is_string());
    const std::string ph = e.at("ph").string;
    if (ph == "M") continue;  // lane-name metadata has no timestamp
    ASSERT_TRUE(e.has("ts"));
    ASSERT_TRUE(e.at("ts").is_number());
    if (e.at("name").string == "run_metadata") {
      saw_run_metadata = true;
      const mj::Value& args = e.at("args");
      EXPECT_EQ(args.at("n").string, "256");
      EXPECT_EQ(args.at("tile_size").string, "64");
      EXPECT_EQ(args.at("band_size").string, "2");
      continue;
    }
    if (ph != "X") continue;
    ++task_events;
    // One complete event per task: begin/end collapsed into ts + dur.
    ASSERT_TRUE(e.has("dur"));
    EXPECT_GE(e.at("dur").number, 0.0);
    const mj::Value& args = e.at("args");
    for (const char* key : {"kind", "kernel", "panel", "i", "j", "flops",
                            "bytes", "rank_in", "rank_out"})
      ASSERT_TRUE(args.has(key)) << "args missing " << key;
    EXPECT_GE(args.at("kind").number, -1.0);
    EXPECT_LT(args.at("kind").number, flops::kNumKernels);
    EXPECT_GE(args.at("flops").number, 0.0);
    const auto lane = std::make_pair(e.at("pid").number, e.at("tid").number);
    const auto it = last_ts.find(lane);
    if (it != last_ts.end()) {
      EXPECT_GE(e.at("ts").number, it->second);
    }
    last_ts[lane] = e.at("ts").number;
  }
  EXPECT_TRUE(saw_run_metadata);
  // Exactly one span per task the graph executed.
  EXPECT_EQ(task_events, res.stats.tasks);
}

TEST_F(ObsTest, TraceCarriesMeasuredFlopsMatchingCounters) {
  obs::enable(true);
  auto r = setup_run(256, 64, 2);
  core::factorize(r.mat, &r.prob, r.cfg);
  obs::enable(false);

  double span_flops = 0.0;
  for (const obs::Span& s : obs::snapshot_spans()) span_flops += s.flops;
  // Same charges aggregated two ways; double sums in different orders, so
  // compare to relative precision rather than bitwise.
  EXPECT_NEAR(span_flops, obs::Counters::total_flops(),
              1e-9 * span_flops + 1e-9);
  EXPECT_GT(span_flops, 0.0);
}

// ------------------------------------------------------ counter registry ----

TEST_F(ObsTest, DenseKernelFlopsBitwiseEqualTableIModel) {
  obs::enable(true);
  // n divisible by b: every dense task of a class charges
  // the identical closed-form value, making the class sum bitwise exact
  // regardless of how the scheduler interleaved the CAS accumulation.
  // Band 3 on the 4x4 grid makes all four dense classes appear (a dense
  // GEMM needs its A, B and C tiles on the band at once).
  auto r = setup_run(256, 64, 3);
  core::factorize(r.mat, &r.prob, r.cfg);
  obs::enable(false);

  const int b = 64;
  const flops::Kernel dense_classes[] = {
      flops::Kernel::kPotrf1, flops::Kernel::kTrsm1, flops::Kernel::kSyrk1,
      flops::Kernel::kGemm1};
  for (const flops::Kernel k : dense_classes) {
    const auto row = obs::Counters::row(static_cast<int>(k));
    ASSERT_GT(row.count, 0) << obs::kernel_name(static_cast<int>(k));
    const double per_task = flops::model(k, b, 0);
    double expected = 0.0;
    for (long long i = 0; i < row.count; ++i) expected += per_task;
    EXPECT_EQ(row.flops, expected)
        << obs::kernel_name(static_cast<int>(k)) << " count " << row.count;
  }
}

TEST_F(ObsTest, LowRankKernelFlopsWithinRankDependentBounds) {
  obs::enable(true);
  auto r = setup_run(256, 64, 1);  // thin band: LR work
  core::factorize(r.mat, &r.prob, r.cfg);
  obs::enable(false);

  const int b = 64;
  bool saw_lowrank = false;
  const flops::Kernel lr_classes[] = {
      flops::Kernel::kTrsm4, flops::Kernel::kSyrk3, flops::Kernel::kGemm5,
      flops::Kernel::kGemm6};
  for (const flops::Kernel k : lr_classes) {
    const auto row = obs::Counters::row(static_cast<int>(k));
    if (row.count == 0) continue;
    saw_lowrank = true;
    EXPECT_GT(row.flops, 0.0) << obs::kernel_name(static_cast<int>(k));
    // Rank-dependent work is bounded by a dense-tile blowup: each task
    // touches O(b^3)-scale factors even with recompression overheads.
    EXPECT_LT(row.flops,
              static_cast<double>(row.count) * 50.0 * b * b * b)
        << obs::kernel_name(static_cast<int>(k));
    // Reported ranks are sane: within [0, b] and min <= mean <= max. A
    // compressing (5)/(6)-GEMM rounds a dense accumulator: rank_in = b,
    // and the rounded rank never exceeds it.
    const bool rounds = k == flops::Kernel::kGemm5 ||
                        k == flops::Kernel::kGemm6;
    if (row.rank_tasks > 0) {
      EXPECT_GE(row.rank_in_min, 0);
      EXPECT_LE(row.rank_in_max, b);
      EXPECT_LE(row.rank_in_min, row.rank_in_mean + 1e-12);
      EXPECT_LE(row.rank_in_mean, row.rank_in_max + 1e-12);
      if (rounds) {
        EXPECT_GE(row.rank_out_min, 0);
        EXPECT_LE(row.rank_out_max, b);
        EXPECT_LE(row.rank_out_mean, row.rank_in_mean + 1e-12);
      }
    }
  }
  EXPECT_TRUE(saw_lowrank) << "band 1 run produced no low-rank kernels";
  // Thin band with recompression: the compression channel saw traffic.
  const auto comp = obs::Counters::compressions();
  EXPECT_GT(comp.count, 0);
  EXPECT_GE(comp.rank_in_sum, comp.rank_out_sum);
}

TEST_F(ObsTest, ThinBandRecompressesEachUpdatedTileOnce) {
  // Band 1 on an nt x nt grid: every off-diagonal tile is low-rank, and
  // each of the C(nt-1, 2) tiles (i, j) with j >= 1 is compressed exactly
  // once, by its last update — not once per update. The graph keeps one
  // GEMM per update: C(nt, 3) of them.
  obs::enable(true);
  auto r = setup_run(384, 48, 1);
  const auto res = core::factorize(r.mat, &r.prob, r.cfg);
  obs::enable(false);
  const long long nt = 8;
  const long long updated = (nt - 1) * (nt - 2) / 2;
  EXPECT_EQ(obs::Counters::compressions().count, updated);
  EXPECT_EQ(obs::Counters::row(static_cast<int>(flops::Kernel::kGemm6)).count,
            updated);
  EXPECT_EQ(res.stats.tasks,
            nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6);
}

TEST_F(ObsTest, DisabledLayerRecordsNothing) {
  ASSERT_FALSE(obs::enabled());
  auto r = setup_run(128, 32, 1);
  const auto res = core::factorize(r.mat, &r.prob, r.cfg);
  EXPECT_GT(res.measured_flops, 0.0);  // the run itself did real work
  EXPECT_EQ(res.exec.run, -1);
  const auto sim = rt::simulate(small_sim_graph(), {4, 1, {}});
  EXPECT_GT(sim.makespan, 0.0);
  EXPECT_EQ(sim.run, -1);

  EXPECT_TRUE(obs::snapshot_spans().empty());
  EXPECT_TRUE(obs::Counters::kernel_rows().empty());
  EXPECT_DOUBLE_EQ(obs::Counters::total_flops(), 0.0);
  EXPECT_EQ(obs::Counters::comm().messages, 0);
  EXPECT_EQ(obs::Counters::compressions().count, 0);
  EXPECT_EQ(obs::counters_ascii(), "");
}

TEST_F(ObsTest, MailboxDepositsBecomeCommEvents) {
  {
    net::LoopbackMesh mesh(2, rt::PerturbConfig{}, resil::FaultConfig{},
                           resil::WatchdogConfig{});
    obs::enable(true);
    mesh[0].send(1, /*tag=*/7, std::vector<char>(100, 'x'));
    mesh[1].send(1, /*tag=*/8, std::vector<char>(5, 'y'));  // self: uncounted
    (void)mesh[1].recv(7, 0);
    (void)mesh[1].recv(8, 1);
    obs::enable(false);
  }  // joins the mesh's session threads before the spans are read

  const auto c = obs::Counters::comm();
  EXPECT_EQ(c.messages, 1);
  EXPECT_EQ(c.bytes, 100);
  int sends = 0;
  for (const obs::Span& s : obs::snapshot_spans())
    if (s.cat == obs::SpanCat::kComm && s.name == "send") {
      ++sends;
      EXPECT_EQ(s.ti, 0);  // from
      EXPECT_EQ(s.tj, 1);  // to
      EXPECT_EQ(s.bytes, 100);
    }
  EXPECT_EQ(sends, 1);
}

// ------------------------------------------------------------- reporters ----

TEST_F(ObsTest, RankHistogramAccountsForEveryTile) {
  auto r = setup_run(256, 64, 2);
  const auto h = obs::rank_histogram(r.mat);
  const long long nt = r.mat.nt();
  EXPECT_EQ(h.dense_diag, nt);
  EXPECT_EQ(h.lowrank_tiles + h.dense_offdiag, nt * (nt - 1) / 2);
  long long bucketed = 0;
  for (const long long c : h.counts) bucketed += c;
  EXPECT_EQ(bucketed, h.lowrank_tiles);
  if (h.lowrank_tiles > 0) {
    EXPECT_LE(h.min_rank, h.mean_rank + 1e-12);
    EXPECT_LE(h.mean_rank, h.max_rank + 1e-12);
    EXPECT_LE(h.max_rank, r.mat.tile_size());
  }
  // JSON artifact parses and round-trips the totals.
  const mj::Value j = mj::parse(obs::to_json(h));
  EXPECT_EQ(static_cast<long long>(j.at("lowrank_tiles").number),
            h.lowrank_tiles);
}

TEST_F(ObsTest, MemoryReportRatiosAreConsistent) {
  auto r = setup_run(256, 64, 2);
  const auto m = obs::memory_report(r.mat, /*static_maxrank=*/32);
  EXPECT_GT(m.exact_mb, 0.0);
  EXPECT_GT(m.static_mb, 0.0);
  EXPECT_GT(m.dense_mb, 0.0);
  EXPECT_NEAR(m.ratio_vs_dense, m.exact_mb / m.dense_mb, 1e-12);
  EXPECT_NEAR(m.ratio_vs_static, m.exact_mb / m.static_mb, 1e-12);
  const mj::Value j = mj::parse(obs::to_json(m));
  EXPECT_EQ(static_cast<int>(j.at("n").number), 256);
}

TEST_F(ObsTest, CriticalPathBoundsTheMeasuredExecution) {
  auto r = setup_run(256, 64, 2);
  obs::enable(true);
  const auto res = core::factorize(r.mat, &r.prob, r.cfg);
  obs::enable(false);
  const auto cp = res.critical_path;
  EXPECT_GT(cp.path_tasks, 0);
  EXPECT_GT(cp.path_seconds, 0.0);
  // The longest chain can never exceed the serial sum, and the measured
  // makespan can never beat the critical path (its tasks ran in sequence).
  EXPECT_LE(cp.path_seconds, cp.serial_seconds * (1.0 + 1e-12));
  EXPECT_GE(cp.makespan * (1.0 + 1e-9) + 1e-9, cp.path_seconds);
  EXPECT_GE(cp.avg_parallelism, 1.0 - 1e-12);
  const mj::Value j = mj::parse(obs::to_json(cp));
  EXPECT_NEAR(j.at("path_seconds").number, cp.path_seconds,
              1e-9 * cp.path_seconds + 1e-12);
}

TEST_F(ObsTest, CountersJsonIsValidAndSumsRows) {
  obs::enable(true);
  auto r = setup_run(256, 64, 2);
  core::factorize(r.mat, &r.prob, r.cfg);
  obs::enable(false);

  const mj::Value j = mj::parse(obs::counters_json());
  ASSERT_TRUE(j.has("kernels"));
  double json_flops = 0.0;
  for (const mj::Value& row : j.at("kernels").array)
    json_flops += row.at("flops").number;
  // JSON carries %.17g doubles: exact round-trip of the registry totals.
  EXPECT_NEAR(json_flops, obs::Counters::total_flops(),
              1e-9 * json_flops + 1e-9);
  const auto rows = obs::Counters::kernel_rows();
  EXPECT_EQ(j.at("kernels").array.size(), rows.size());
}

// ---------------------------------------------------------- run selection ----

TEST_F(ObsTest, TwoTracedFactorizationsReadOnlyTheirOwnSpans) {
  // Two factorizations in one process, as fig09 runs them: each result's
  // critical path and panel-release curve come from its own run's spans,
  // not from everything recorded since the last reset.
  auto thin = setup_run(256, 64, 1);
  auto wide = setup_run(256, 64, 3);
  obs::enable(true);
  const auto a = core::factorize(thin.mat, &thin.prob, thin.cfg);
  const auto b = core::factorize(wide.mat, &wide.prob, wide.cfg);
  obs::enable(false);
  ASSERT_GE(a.exec.run, 0);
  ASSERT_GE(b.exec.run, 0);
  EXPECT_NE(a.exec.run, b.exec.run);
  // Task spans only: under PTLR_FAULTS the recovery events add spans of
  // their own (SpanCat::kResil, in no run).
  const auto all = obs::snapshot_spans();
  EXPECT_EQ(std::count_if(all.begin(), all.end(),
                          [](const obs::Span& s) {
                            return s.cat == obs::SpanCat::kTask;
                          }),
            a.stats.tasks + b.stats.tasks);

  for (const core::CholeskyResult* res : {&a, &b}) {
    const auto spans = obs::run_spans(res->exec.run);
    ASSERT_EQ(static_cast<long long>(spans.size()), res->stats.tasks);
    double serial = 0.0;
    for (const obs::Span& s : spans) {
      EXPECT_EQ(s.run, res->exec.run);
      serial += s.t1 - s.t0;
    }
    const obs::CriticalPathReport& cp = res->critical_path;
    EXPECT_EQ(cp.serial_seconds, serial);
    // Each run's makespan fits inside its own wall clock; a selection
    // that took in the other run would span both.
    EXPECT_GT(cp.makespan, 0.0);
    EXPECT_LE(cp.makespan, res->exec.seconds);
    const auto release = obs::panel_release_times(spans);
    ASSERT_EQ(static_cast<int>(release.size()), thin.mat.nt());
    EXPECT_EQ(*std::max_element(release.begin(), release.end()),
              cp.makespan);
  }
  // The second run starts after the first ends.
  double a_end = 0.0;
  for (const obs::Span& s : obs::run_spans(a.exec.run))
    a_end = std::max(a_end, s.t1);
  for (const obs::Span& s : obs::run_spans(b.exec.run))
    EXPECT_GE(s.t0, a_end);
}

// ------------------------------------------- counters against the drivers ----

TEST_F(ObsTest, ResilienceCountersMatchTheFactorizationsRecovery) {
  auto r = setup_run(256, 64, 2);
  r.cfg.faults = resil::FaultConfig::parse("seed=1,task=0.5,alloc=0.1,poison=0.1");
  obs::enable(true);
  const auto res = core::factorize(r.mat, &r.prob, r.cfg);
  obs::enable(false);
  ASSERT_GT(res.recovery.faults_injected(), 0);
  const obs::ResilienceCounters rc = obs::Counters::resilience();
  EXPECT_EQ(rc, res.recovery)
      << "obs: " << rc.to_string() << "\ndriver: " << res.recovery.to_string();
}

TEST_F(ObsTest, CommCountersMatchTheDistributedFactorization) {
  const compress::Accuracy acc{1e-6, 1 << 30};
  auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, 192);
  auto mat = tlr::TlrMatrix::from_problem(prob, 32, acc, 2);
  rt::BandDistribution dist(2, 2, 2);
  obs::enable(true);
  const auto res = core::distributed_factorize(mat, dist, acc);
  obs::enable(false);
  ASSERT_GT(res.comm.messages, 0);
  const obs::CommCounters cc = obs::Counters::comm();
  EXPECT_EQ(cc.messages, res.comm.messages);
  EXPECT_EQ(cc.bytes, res.comm.bytes);
}

// ---------------------------------------------------------- simulated spans ----

TEST_F(ObsTest, SimulatedRunRecordsOneSpanPerTaskOnItsOwnPids) {
  const rt::TaskGraph g = small_sim_graph();
  const int nproc = 4;
  obs::enable(true);
  const auto res = rt::simulate(g, {nproc, 2, {}});
  obs::enable(false);
  ASSERT_GE(res.run, 0);

  // Exactly one span per task, and per-process span time is the
  // simulator's own busy account.
  const auto spans = obs::run_spans(res.run);
  ASSERT_EQ(static_cast<int>(spans.size()), g.size());
  std::vector<double> busy(nproc, 0.0);
  for (rt::TaskId t = 0; t < g.size(); ++t) {
    const obs::Span& s = spans[static_cast<std::size_t>(t)];
    EXPECT_EQ(s.task, t);
    EXPECT_EQ(s.cat, obs::SpanCat::kSim);
    EXPECT_EQ(s.name, g.info(t).name);
    EXPECT_EQ(s.proc, g.info(t).owner);
    busy[static_cast<std::size_t>(s.proc)] += s.t1 - s.t0;
  }
  for (int p = 0; p < nproc; ++p)
    EXPECT_NEAR(busy[static_cast<std::size_t>(p)],
                res.busy[static_cast<std::size_t>(p)], 1e-9);
  // A model is not an execution: no kernel rows.
  EXPECT_TRUE(obs::Counters::kernel_rows().empty());

  // The written trace puts process p on its own pid, never on the comm or
  // resilience pid, and names only the pids it writes.
  const std::string path = ::testing::TempDir() + "ptlr_sim_trace.json";
  obs::write_chrome_trace(path);
  const mj::Value doc = mj::parse_file(path);
  std::remove(path.c_str());
  std::set<int> named, written;
  int sim_events = 0;
  for (const mj::Value& e : doc.at("traceEvents").array) {
    const int pid = static_cast<int>(e.at("pid").number);
    if (e.at("ph").string == "M") {
      named.insert(pid);
      continue;
    }
    written.insert(pid);
    ASSERT_EQ(e.at("ph").string, "X");
    ++sim_events;
    EXPECT_NE(pid, 1);
    EXPECT_NE(pid, 2);
    EXPECT_EQ(pid, obs::kSimPidBase +
                       static_cast<int>(e.at("args").at("proc").number));
  }
  EXPECT_EQ(sim_events, g.size());
  EXPECT_EQ(named, written);
  EXPECT_EQ(static_cast<int>(written.size()), nproc);
}
