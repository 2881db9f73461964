// Socket transport suite (src/net), multi-process half: every rank is a
// REAL OS process launched through tools/ptlr-launch, talking over a UDS
// (or, in one test, TCP loopback) mesh. The tests/support/multiproc.hpp harness re-executes this binary
// per rank (PTLR_MP_CASE selects the rank program below), collects exit
// codes and multiplexed output, and the gtest wrappers assert on both.
//
// The acceptance criterion of the distributed backend rides here: on 2-
// and 4-process meshes, under the 8-seed message drop/duplicate fault
// sweep, every rank's owned tiles are bitwise identical to the in-process
// shared-memory oracle — the factor does not know what transport computed
// it, and injected drops are recovered by real retransmissions on a real
// wire (drop/recover totals are aggregated across the rank processes).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/dist_cholesky.hpp"
#include "net/transport.hpp"
#include "resilience/fault.hpp"
#include "resilience/stats.hpp"
#include "runtime/distribution.hpp"
#include "stars/problem.hpp"
#include "support/multiproc.hpp"
#include "tlr/io.hpp"
#include "tlr/tlr_matrix.hpp"

using namespace ptlr;
namespace mp = ptlr::testing;

namespace {

constexpr int kN = 96;
constexpr int kB = 16;

// RAII environment override restoring the previous value on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value == nullptr)
      unsetenv(name);
    else
      setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_)
      setenv(name_.c_str(), old_.c_str(), 1);
    else
      unsetenv(name_.c_str());
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

std::unique_ptr<rt::Distribution> make_dist(const std::string& kind,
                                            int nranks) {
  const auto [p, q] = rt::square_grid(nranks);
  if (kind == "band")
    return std::make_unique<rt::BandDistribution>(p, q, /*band_size=*/2);
  return std::make_unique<rt::TwoDBlockCyclic>(p, q);
}

tlr::TlrMatrix replica(const compress::Accuracy& acc) {
  const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, kN);
  return tlr::TlrMatrix::from_problem(prob, kB, acc, 1);
}

std::string faults_spec(std::uint64_t seed) {
  return "seed=" + std::to_string(seed) +
         ",task=0,alloc=0,poison=0,drop=0.3,dup=0.3";
}

// Kill-only spec for the rank-death tests: message drops stay off so the
// DROPS==RECOVERED symmetry of the other sweeps is not entangled with the
// replayed sends of a respawned rank.
std::string kill_spec(std::uint64_t seed) {
  return "seed=" + std::to_string(seed) +
         ",task=0,alloc=0,poison=0,drop=0,dup=0,kill=1";
}

// Scratch directory for one launch's checkpoint files; removed with
// contents on destruction (stale checkpoints from a previous launch would
// be rejected by the loader, but must not leak either way).
class ScopedDir {
 public:
  ScopedDir() {
    char tmpl[] = "/tmp/ptlr-ckpt-XXXXXX";
    if (mkdtemp(tmpl) != nullptr) path_ = tmpl;
  }
  ~ScopedDir() {
    if (path_.empty()) return;
    std::system(("rm -rf " + path_).c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Sum "KEY=<n>" occurrences over the multiplexed transcript.
long long sum_metric(const std::string& output, const std::string& key) {
  long long total = 0;
  std::istringstream in(output);
  for (std::string line; std::getline(in, line);) {
    const auto pos = line.find(key + "=");
    if (pos == std::string::npos) continue;
    total += std::atoll(line.c_str() + pos + key.size() + 1);
  }
  return total;
}

}  // namespace

// -------------------------------------------------------------- rank cases

// Two ranks bounce a payload across the wire and drain cleanly.
PTLR_RANK_CASE(net_pingpong) {
  net::SocketTransport t;
  const std::uint64_t tag = rt::dist::make_tag(0, 1, 2, 3);
  const std::vector<char> ball{'p', 'i', 'n', 'g'};
  if (t.rank() == 0) {
    t.send(1, tag, ball);
    if (t.recv(tag + 1, 1) != ball) return 9;
  } else {
    if (t.recv(tag, 0) != ball) return 9;
    t.send(0, tag + 1, ball);
  }
  t.drain();
  return 0;
}

// One rank of the distributed factorization over the socket mesh, checked
// bitwise against the in-process shared-memory oracle (computed locally,
// faults and chaos disabled — deterministic by construction). Prints
// "DROPS=… RECOVERED=… RETRANSMITS=…" so the launching test can aggregate
// the recovery accounting across the rank processes.
PTLR_RANK_CASE(dist_bitwise) {
  const std::string kind = mp::rank_case_args();
  const compress::Accuracy acc{1e-6, 1 << 30};
  tlr::TlrMatrix a = replica(acc);

  net::SocketTransport t;
  const auto dist = make_dist(kind, t.nranks());
  const auto res = core::distributed_factorize_rank(a, *dist, acc, t);
  std::cout << "DROPS=" << res.recovery.of(resil::ResilienceEvent::kMsgDrop)
            << " RECOVERED="
            << res.recovery.of(resil::ResilienceEvent::kMsgRecovered)
            << " RETRANSMITS=" << t.wire_stats().retransmits << std::endl;

  const ScopedEnv no_faults("PTLR_FAULTS", nullptr);
  const ScopedEnv no_chaos("PTLR_PERTURB_SEED", nullptr);
  tlr::TlrMatrix oracle = replica(acc);
  core::distributed_factorize(oracle, *dist, acc);

  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      if (dist->owner(i, j) != t.rank()) continue;
      if (tlr::tile_to_bytes(a.at(i, j)) !=
          tlr::tile_to_bytes(oracle.at(i, j))) {
        std::cerr << "tile (" << i << "," << j << ") of rank " << t.rank()
                  << " differs from the shared-memory oracle\n";
        return 9;
      }
    }
  return 0;
}

// One rank of the factorization under the rank_kill fault class: the
// seeded plan SIGKILLs one rank at one k-step, the launcher respawns it
// (PTLR_EPOCH > 0), and the respawn reloads its checkpoint, rejoins the
// mesh and replays. Every rank — including the restarted one — must end
// bitwise identical to the in-process oracle. Prints "RESTARTS=…
// CKPT_WRITES=… CKPT_LOADS=… REJOINS=…" for cross-process aggregation.
PTLR_RANK_CASE(dist_kill_recover) {
  const std::string kind = mp::rank_case_args();
  const compress::Accuracy acc{1e-6, 1 << 30};
  tlr::TlrMatrix a = replica(acc);

  const auto rec = core::RankRecoveryOptions::from_env();
  net::NetConfig cfg = net::NetConfig::from_env();
  if (cfg.epoch > 0 && rec.ckpt.enabled())
    cfg.rejoin_frontier =
        core::peek_checkpoint_frontier(rec.ckpt.path_of(cfg.rank));

  net::SocketTransport t(cfg);
  const auto dist = make_dist(kind, t.nranks());
  // A respawn resuming past a checkpoint: count the dense accumulators it
  // carries — owned low-rank tiles updated before the frontier whose last
  // update, at step j-1, lies at or past it.
  int accumulators = 0;
  if (cfg.rejoin_frontier > 0) {
    tlr::TlrMatrix loaded = replica(acc);
    core::load_rank_checkpoint(rec.ckpt.path_of(cfg.rank), loaded, *dist,
                               t.rank());
    const auto frontier = static_cast<int>(cfg.rejoin_frontier);
    for (int i = 0; i < a.nt(); ++i)
      for (int j = frontier + 1; j < i; ++j)
        if (dist->owner(i, j) == t.rank() && a.at(i, j).is_lowrank() &&
            loaded.at(i, j).is_dense())
          ++accumulators;
  }
  const auto res = core::distributed_factorize_rank(a, *dist, acc, t, rec);
  std::cout << "RESTARTS=" << res.recovery.rank_restarts()
            << " CKPT_WRITES=" << res.recovery.checkpoint_writes()
            << " CKPT_LOADS=" << res.recovery.checkpoint_loads()
            << " REJOINS=" << t.wire_stats().rejoins
            << " ACCUMULATORS=" << accumulators << std::endl;

  const ScopedEnv no_faults("PTLR_FAULTS", nullptr);
  const ScopedEnv no_chaos("PTLR_PERTURB_SEED", nullptr);
  tlr::TlrMatrix oracle = replica(acc);
  core::distributed_factorize(oracle, *dist, acc);

  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      if (dist->owner(i, j) != t.rank()) continue;
      if (tlr::tile_to_bytes(a.at(i, j)) !=
          tlr::tile_to_bytes(oracle.at(i, j))) {
        std::cerr << "tile (" << i << "," << j << ") of rank " << t.rank()
                  << " differs from the shared-memory oracle after the"
                  << " rank restart\n";
        return 9;
      }
    }
  return 0;
}

// Rank 1 dies mid-run without a BYE; the survivors' blocked receives must
// fail with a descriptive "lost" error (exit 7), not hang.
PTLR_RANK_CASE(dist_die) {
  net::SocketTransport t;  // join the mesh first, then die
  if (t.rank() == 1) _exit(3);
  try {
    t.recv(rt::dist::make_tag(0, 0, 0, 1), 1);
    std::cerr << "recv from the dead rank unexpectedly returned\n";
    return 8;
  } catch (const Error& e) {
    const std::string what = e.what();
    if (what.find("lost") == std::string::npos ||
        what.find("rank 1") == std::string::npos) {
      std::cerr << "error does not name the lost peer: " << what << "\n";
      return 8;
    }
    return 7;
  }
}

// ---------------------------------------------------------- gtest wrappers

TEST(MultiProc, PingPongAcrossProcesses) {
  const auto r = mp::launch_ranks("net_pingpong", 2);
  ASSERT_TRUE(r.ok()) << r.output;
}

TEST(MultiProc, DeadRankFailsSurvivorsByName) {
  const auto r = mp::launch_ranks("dist_die", 3);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.rank_codes.size(), 3u) << r.output;
  EXPECT_EQ(r.rank_codes[1], 3) << r.output;
  EXPECT_EQ(r.rank_codes[0], 7) << "survivor 0 did not fail over cleanly\n"
                                << r.output;
  EXPECT_EQ(r.rank_codes[2], 7) << "survivor 2 did not fail over cleanly\n"
                                << r.output;
}

TEST(DistSocket, CleanRunMatchesOracleOn2And4Ranks) {
  for (const int nranks : {2, 4}) {
    const auto r = mp::launch_ranks("dist_bitwise", nranks, {}, "2d");
    ASSERT_TRUE(r.ok()) << "nranks=" << nranks << "\n" << r.output;
    EXPECT_EQ(sum_metric(r.output, "DROPS"), 0) << r.output;
  }
}

TEST(DistSocket, BandDistributionMatchesOracle) {
  for (const int nranks : {2, 4}) {
    const auto r = mp::launch_ranks(
        "dist_bitwise", nranks,
        {{"PTLR_FAULTS", faults_spec(3)}}, "band");
    ASSERT_TRUE(r.ok()) << "nranks=" << nranks << "\n" << r.output;
    EXPECT_EQ(sum_metric(r.output, "DROPS"),
              sum_metric(r.output, "RECOVERED"))
        << r.output;
  }
}

// The acceptance sweep: 8 fault seeds × {2, 4} rank processes, every rank
// bitwise identical to the oracle, every injected drop recovered by a real
// retransmission on the wire. Drops and duplicates land on tree-forwarded
// edges too, and recovery must still deliver exactly once.
TEST(DistSocket, EightSeedBitwiseSweepUnderFaults) {
  long long drops_total = 0;
  long long retransmits_total = 0;
  for (const int nranks : {2, 4}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto r = mp::launch_ranks(
          "dist_bitwise", nranks,
          {{"PTLR_FAULTS", faults_spec(seed)}}, "2d");
      ASSERT_TRUE(r.ok()) << "nranks=" << nranks << " seed=" << seed << "\n"
                          << r.output;
      const long long drops = sum_metric(r.output, "DROPS");
      const long long recovered = sum_metric(r.output, "RECOVERED");
      EXPECT_EQ(drops, recovered)
          << "nranks=" << nranks << " seed=" << seed << "\n" << r.output;
      drops_total += drops;
      retransmits_total += sum_metric(r.output, "RETRANSMITS");
    }
  }
  // At 30% drop probability the sweep must inject plenty, and every
  // injected drop costs at least one real retransmission.
  EXPECT_GT(drops_total, 0);
  EXPECT_GE(retransmits_total, drops_total);
}

// The rank slices over TCP loopback instead of UDS: the same bitwise
// contract at 2 and 4 rank processes, once clean and once under injected
// drops and duplicates. Each launch takes its base port from the test's
// pid, so parallel ctest runs do not collide; a launch whose bind failed
// retries once on another base.
TEST(DistSocket, TcpMeshMatchesOracleCleanAndUnderFaults) {
  int launches = 0;
  const auto launch_tcp = [&](int nranks, const mp::EnvList& env) {
    for (int attempt = 0;; ++attempt) {
      const int base =
          20000 + static_cast<int>((static_cast<long long>(getpid()) * 131 +
                                    64LL * launches++) %
                                   30000);
      auto r = mp::launch_ranks("dist_bitwise", nranks, env, "2d", 120.0, 0,
                                "tcp:127.0.0.1:" + std::to_string(base));
      if (r.ok() || attempt > 0 ||
          r.output.find("bind(") == std::string::npos)
        return r;
    }
  };
  for (const int nranks : {2, 4}) {
    const auto clean = launch_tcp(nranks, {});
    ASSERT_TRUE(clean.ok()) << "nranks=" << nranks << "\n" << clean.output;
    EXPECT_EQ(sum_metric(clean.output, "DROPS"), 0) << clean.output;

    const auto faulted = launch_tcp(nranks, {{"PTLR_FAULTS", faults_spec(3)}});
    ASSERT_TRUE(faulted.ok()) << "nranks=" << nranks << "\n"
                              << faulted.output;
    EXPECT_EQ(sum_metric(faulted.output, "DROPS"),
              sum_metric(faulted.output, "RECOVERED"))
        << faulted.output;
  }
}

// The rank-death acceptance sweep: 8 kill seeds × {2, 4} rank processes,
// alternating band and 2d distributions. Every run SIGKILLs exactly one
// rank (kill=1) at a seed-chosen step; the launcher must respawn it, the
// mesh must readmit it, and every rank must still match the oracle
// bitwise. The restart accounting must agree across processes: the
// launcher reports exactly one respawn, and exactly one rank program saw
// itself restarted.
TEST(DistSocket, RankDeathRecoverySweep) {
  for (const int nranks : {2, 4}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const std::string kind = (seed % 2 == 1) ? "band" : "2d";
      const ScopedDir ckpt_dir;
      ASSERT_FALSE(ckpt_dir.path().empty());
      const auto r = mp::launch_ranks(
          "dist_kill_recover", nranks,
          {{"PTLR_FAULTS", kill_spec(seed)},
           {"PTLR_CKPT", "every:2"},
           {"PTLR_CKPT_DIR", ckpt_dir.path()}},
          kind, /*timeout_sec=*/120.0, /*respawn=*/2);
      ASSERT_TRUE(r.ok()) << "nranks=" << nranks << " seed=" << seed
                          << " dist=" << kind << "\n" << r.output;
      long long respawns = 0;
      for (const int n : r.rank_respawns) respawns += n;
      EXPECT_EQ(respawns, 1)
          << "nranks=" << nranks << " seed=" << seed << "\n" << r.output;
      EXPECT_EQ(sum_metric(r.output, "RESTARTS"), 1)
          << "nranks=" << nranks << " seed=" << seed << "\n" << r.output;
      // The mesh readmitted the respawn: it re-handshook every survivor,
      // and every survivor accounted the rejoin.
      EXPECT_GE(sum_metric(r.output, "REJOINS"), 2 * (nranks - 1))
          << r.output;
    }
  }
}

// Rank death after a checkpoint that holds dense accumulators: the seeds
// are picked so the kill lands at step 2 or 3, past the first checkpoint
// (every:2, frontier 2) and before the second (frontier 4). The victim's
// low-rank tiles (m, n) with n >= 3 have taken the updates of steps 0 and
// 1 in their dense accumulators but not their rounding update at step
// n-1; no survivor re-sends the panels of steps 0 and 1 after the
// restart, so the respawn must resume from the accumulators its
// checkpoint holds and still match the oracle bitwise.
TEST(DistSocket, RankDeathAfterCheckpointResumesFromDenseAccumulators) {
  const int nt = kN / kB;
  int runs = 0;
  for (std::uint64_t seed = 1; runs < 8 && seed < 200; ++seed) {
    const int nranks = runs % 2 == 0 ? 4 : 2;
    const auto plan =
        resil::FaultInjector(resil::FaultConfig::parse(kill_spec(seed).c_str()))
            .rank_kill(nranks, nt);
    if (!plan || plan->step < 2 || plan->step > 3) continue;
    ++runs;
    const std::string kind = runs % 4 < 2 ? "2d" : "band";
    const ScopedDir ckpt_dir;
    ASSERT_FALSE(ckpt_dir.path().empty());
    const auto r = mp::launch_ranks(
        "dist_kill_recover", nranks,
        {{"PTLR_FAULTS", kill_spec(seed)},
         {"PTLR_CKPT", "every:2"},
         {"PTLR_CKPT_DIR", ckpt_dir.path()}},
        kind, /*timeout_sec=*/120.0, /*respawn=*/2);
    const std::string where = "nranks=" + std::to_string(nranks) + " seed=" +
                              std::to_string(seed) + " step=" +
                              std::to_string(plan->step) + " dist=" + kind;
    ASSERT_TRUE(r.ok()) << where << "\n" << r.output;
    EXPECT_EQ(sum_metric(r.output, "RESTARTS"), 1) << where << "\n"
                                                   << r.output;
    EXPECT_GE(sum_metric(r.output, "CKPT_LOADS"), 1) << where << "\n"
                                                     << r.output;
    EXPECT_GT(sum_metric(r.output, "ACCUMULATORS"), 0) << where << "\n"
                                                       << r.output;
  }
  EXPECT_EQ(runs, 8);
}

// With no respawn budget the kill degrades to today's orderly failure:
// the victim reports the signal, every survivor exits 7 with an error
// naming the lost peer — nothing hangs, nothing rejoins.
TEST(DistSocket, RankDeathWithoutRespawnFailsOrderly) {
  const std::uint64_t seed = 1;
  const ScopedDir ckpt_dir;
  const auto r = mp::launch_ranks(
      "dist_kill_recover", 2,
      {{"PTLR_FAULTS", kill_spec(seed)},
       {"PTLR_CKPT", "every:2"},
       {"PTLR_CKPT_DIR", ckpt_dir.path()}},
      "band", /*timeout_sec=*/120.0, /*respawn=*/0);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.rank_codes.size(), 2u) << r.output;
  int victims = 0, survivors = 0;
  for (const int code : r.rank_codes) {
    if (code == 128 + 9) ++victims;  // SIGKILL
    if (code == 106) ++survivors;    // harness exit: ptlr::Error escaped
  }
  EXPECT_EQ(victims, 1) << r.output;
  EXPECT_EQ(survivors, 1) << r.output;
  // The survivor's factorization dies in recv with the descriptive error
  // (the rank case maps any ptlr::Error to the harness's exception exit).
  EXPECT_NE(r.output.find("lost"), std::string::npos) << r.output;
  for (const int n : r.rank_respawns) EXPECT_EQ(n, 0) << r.output;
}

int main(int argc, char** argv) {
  // Child path: a rank process runs its case and exits here.
  mp::maybe_run_rank_case();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
