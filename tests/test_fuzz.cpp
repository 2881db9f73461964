// Property-based fuzzing of the runtime layer under schedule perturbation
// (chaos mode). Every test replays across the seed parameter, so the suite
// covers 8 adversarial schedules per shape × thread count; CI runs this
// binary under ThreadSanitizer. Invariants (see tests/support/fuzz.hpp):
//   * every task runs exactly once,
//   * dependencies are respected (logical happens-before stamps),
//   * numerical output is bitwise-identical to the sequential oracle,
//     regardless of thread count and perturbation seed.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "runtime/executor.hpp"
#include "runtime/mailbox.hpp"
#include "support/fuzz.hpp"

using namespace ptlr;
using namespace ptlr::testing;

namespace {

rt::ExecOptions perturbed(std::uint64_t seed) {
  rt::ExecOptions opts;
  opts.record_trace = true;
  opts.perturb = rt::PerturbConfig::with_seed(seed);
  return opts;
}

// Run `p` under `opts` with `nthreads` workers and assert all three fuzz
// invariants against the sequential oracle.
void run_and_check(FuzzProgram& p, int nthreads,
                   const rt::ExecOptions& opts) {
  const std::vector<double> oracle = p.run_reference();
  p.reset();
  const auto res = rt::execute(p.graph(), nthreads, opts);
  EXPECT_EQ(check_ran_exactly_once(p.run_counts()), "");
  EXPECT_EQ(check_happens_before(p.graph(), res.trace), "");
  EXPECT_EQ(check_cells_match(p.cells(), oracle), "");
}

// Task order of a single-threaded run, from the happens-before stamps.
std::vector<rt::TaskId> order_of(const std::vector<rt::TraceEvent>& trace) {
  std::vector<rt::TaskId> order(trace.size());
  for (const auto& ev : trace) {
    const auto pos = static_cast<std::size_t>(ev.seq_start / 2);
    order[pos] = ev.task;
  }
  return order;
}

}  // namespace

class PerturbFuzz : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] std::uint64_t seed() const {
    return static_cast<std::uint64_t>(GetParam());
  }
};

TEST_P(PerturbFuzz, RandomDagMatchesOracle) {
  Rng rng(seed());
  auto p = FuzzProgram::random(rng, 150, 12);
  for (const int nthreads : {1, 2, 4})
    run_and_check(p, nthreads, perturbed(seed()));
}

TEST_P(PerturbFuzz, DiamondMatchesOracle) {
  auto p = FuzzProgram::diamond(10, 6);
  for (const int nthreads : {2, 4}) run_and_check(p, nthreads, perturbed(seed()));
}

TEST_P(PerturbFuzz, ForkJoinMatchesOracle) {
  auto p = FuzzProgram::fork_join(8, 5);
  for (const int nthreads : {2, 4}) run_and_check(p, nthreads, perturbed(seed()));
}

TEST_P(PerturbFuzz, BandCholeskyShapeMatchesOracle) {
  auto p = FuzzProgram::band_cholesky(6, 2);
  for (const int nthreads : {1, 2, 4})
    run_and_check(p, nthreads, perturbed(seed()));
}

TEST_P(PerturbFuzz, NestedShapeMatchesOracle) {
  // Tasks spawning child subgraphs through rt::TaskGroup: under chaos the
  // children are pushed, stolen and drained at perturbed points — the
  // oracle and the exactly-once contract must still hold.
  Rng rng(seed());
  auto p = FuzzProgram::nested(rng, 100, 10, 4);
  for (const int nthreads : {1, 2, 4}) {
    run_and_check(p, nthreads, perturbed(seed()));
    EXPECT_EQ(check_ran_exactly_once(p.child_runs()), "")
        << "child counts at " << nthreads << " threads";
  }
}

TEST_P(PerturbFuzz, UnperturbedExecutorMatchesOracle) {
  Rng rng(seed() + 500);
  auto p = FuzzProgram::random(rng, 120, 10);
  rt::ExecOptions opts;
  opts.record_trace = true;
  opts.perturb = {};  // chaos off: the deterministic production schedule
  for (const int nthreads : {1, 4}) run_and_check(p, nthreads, opts);
}

// With one worker there are no timing races, so the perturbation stream
// fully determines the schedule: the same seed must replay the exact same
// task order — that is what makes `--perturb-seed`-style reproduction of
// a failure practical.
TEST_P(PerturbFuzz, SingleThreadPerturbationIsReplayable) {
  Rng rng(seed() + 900);
  auto p = FuzzProgram::random(rng, 100, 8);
  const auto r1 = rt::execute(p.graph(), 1, perturbed(seed()));
  p.reset();
  const auto r2 = rt::execute(p.graph(), 1, perturbed(seed()));
  EXPECT_EQ(order_of(r1.trace), order_of(r2.trace));
}

TEST(PerturbFuzzMeta, DifferentSeedsProduceDifferentSchedules) {
  // 100 independent tasks: any order is valid, so distinct decision
  // streams should essentially never coincide across three seed pairs.
  auto build = [] {
    Rng rng(7);
    return FuzzProgram::random(rng, 100, 8);
  };
  int distinct = 0;
  for (const std::uint64_t s : {11u, 22u, 33u}) {
    auto pa = build();
    auto pb = build();
    const auto ra = rt::execute(pa.graph(), 1, perturbed(s));
    const auto rb = rt::execute(pb.graph(), 1, perturbed(s + 1));
    if (order_of(ra.trace) != order_of(rb.trace)) distinct++;
  }
  EXPECT_GT(distinct, 0);
}

// The happens-before checker itself must catch a forged trace — the
// standing self-test backing the mutation criterion (a dependency-dropping
// executor bug surfaces as exactly this stamp pattern).
TEST(PerturbFuzzMeta, HappensBeforeCheckerFlagsViolations) {
  auto p = FuzzProgram::diamond(2, 3);
  auto res = rt::execute(p.graph(), 2, perturbed(1));
  ASSERT_EQ(check_happens_before(p.graph(), res.trace), "");
  // Forge: pretend some successor started before its predecessor ended.
  auto forged = res.trace;
  bool forged_one = false;
  for (rt::TaskId t = 0; t < p.graph().size() && !forged_one; ++t)
    if (!p.graph().successors(t).empty()) {
      const rt::TaskId s = p.graph().successors(t)[0];
      forged[static_cast<std::size_t>(s)].seq_start =
          forged[static_cast<std::size_t>(t)].seq_end - 1;
      forged_one = true;
    }
  ASSERT_TRUE(forged_one);
  EXPECT_NE(check_happens_before(p.graph(), forged), "");
}

TEST(PerturbFuzzMeta, MissingStampsAreReported) {
  auto p = FuzzProgram::fork_join(1, 2);
  const auto res = rt::execute(p.graph(), 2, perturbed(3));
  auto broken = res.trace;
  broken[0].seq_start = -1;
  EXPECT_NE(check_happens_before(p.graph(), broken), "");
}

// ------------------------------------------------ mailbox under chaos ----

// N ranks exchange `rounds` rounds of tagged messages while the perturbed
// communicator delays deliveries; every payload must still arrive intact
// on the right (rank, tag). TSan watches the mailbox internals meanwhile.
TEST_P(PerturbFuzz, MailboxDeliversEverythingUnderChaos) {
  const int nranks = 4, rounds = 16;
  rt::dist::Communicator comm(nranks, rt::PerturbConfig::with_seed(seed()));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> ranks;
  ranks.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    ranks.emplace_back([&, r] {
      for (int m = 0; m < rounds; ++m) {
        for (int q = 0; q < nranks; ++q) {
          if (q == r) continue;
          comm.send(r, q,
                    rt::dist::make_tag(1, static_cast<std::uint32_t>(m),
                                       static_cast<std::uint32_t>(r),
                                       static_cast<std::uint32_t>(q)),
                    {static_cast<char>(r), static_cast<char>(m)});
        }
        for (int q = 0; q < nranks; ++q) {
          if (q == r) continue;
          const auto got = comm.recv(
              r, rt::dist::make_tag(1, static_cast<std::uint32_t>(m),
                                    static_cast<std::uint32_t>(q),
                                    static_cast<std::uint32_t>(r)));
          if (got.size() != 2 || got[0] != static_cast<char>(q) ||
              got[1] != static_cast<char>(m))
            mismatches++;
        }
      }
    });
  }
  for (auto& th : ranks) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(comm.stats().messages,
            static_cast<long long>(nranks) * (nranks - 1) * rounds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerturbFuzz, ::testing::Range(1, 9));
