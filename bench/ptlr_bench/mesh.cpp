// mesh4: the distributed factorization over the real socket mesh.
//
// The parent launches 4 single-threaded rank processes of this same binary
// (`ptlr_bench --rank ...`) through ptlr-launch over UDS. Each rank builds
// the problem, joins the mesh, compresses its full replica and runs
// core::distributed_factorize_rank with the hybrid band placement forced
// (width 2), so the α/β probe cannot flip the placement between runs. Every
// rank reports its CLOCK_MONOTONIC phase stamps and counters in a
// "key value" file; the parent turns them into the ledger and checks each
// rank's owned tiles against one untimed in-process oracle.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/dist_cholesky.hpp"
#include "core/placement.hpp"
#include "core/solve.hpp"
#include "net/transport.hpp"
#include "obs/counters.hpp"
#include "resilience/stats.hpp"

extern char** environ;

namespace ptlr_bench {

using namespace ptlr;
namespace fs = std::filesystem;

namespace {

constexpr int kRanks = 4;
constexpr int kN = 2048;
constexpr int kTile = 128;
constexpr int kBandWidth = 2;
constexpr double kTol = 1e-6;
const compress::Accuracy kAcc{kTol, 1 << 30};

std::unique_ptr<rt::Distribution> placement(int nranks) {
  return core::make_placement(core::PlacementKind::kHybridBand, nranks,
                              kBandWidth);
}

std::vector<int> owners(const rt::Distribution& dist, int nt) {
  std::vector<int> own(static_cast<std::size_t>(nt) * nt, -1);
  for (int i = 0; i < nt; ++i)
    for (int j = 0; j <= i; ++j)
      own[static_cast<std::size_t>(i) * nt + j] = dist.owner(i, j);
  return own;
}

double mean_offband_rank(const tlr::TlrMatrix& a, int band) {
  double sum = 0.0;
  long long count = 0;
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j + band <= i; ++j) {
      sum += a.at(i, j).rank();
      ++count;
    }
  return count > 0 ? sum / static_cast<double>(count) : 8.0;
}

std::string self_exe() {
  return fs::read_symlink("/proc/self/exe").string();
}

double get(const KeyValues& kv, const std::string& key) {
  const auto it = kv.find(key);
  PTLR_CHECK(it != kv.end(), "rank report lacks " + key);
  return std::stod(it->second);
}

double max_of(const std::vector<KeyValues>& r, const std::string& key) {
  double m = get(r.front(), key);
  for (const auto& kv : r) m = std::max(m, get(kv, key));
  return m;
}

double min_of(const std::vector<KeyValues>& r, const std::string& key) {
  double m = get(r.front(), key);
  for (const auto& kv : r) m = std::min(m, get(kv, key));
  return m;
}

double sum_of(const std::vector<KeyValues>& r, const std::string& key) {
  double s = 0.0;
  for (const auto& kv : r) s += get(kv, key);
  return s;
}

enum class RankMode { kTimed, kTraced, kSetupOnly };

/// One ptlr-launch of the ranks: their reports, and the monotonic stamps
/// of the spawn and of the reap.
struct Launch {
  std::vector<KeyValues> ranks;
  std::int64_t t_spawn = 0;
  std::int64_t t_exit = 0;

  /// Spawn → the last rank's completed mesh handshake.
  [[nodiscard]] double setup_seconds() const {
    double last = 0.0;
    for (const auto& kv : ranks) last = std::max(last, get(kv, "t_connected_ns"));
    return (last - static_cast<double>(t_spawn)) / 1e9;
  }
};

/// Launch the ranks with `dir` as rendezvous and report directory; throws
/// when the launcher fails (its log stays in `dir`).
Launch launch(const std::string& dir, RankMode mode) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const double timeout = std::max(1.0, rep_seconds_left() - 5.0);
  std::vector<std::string> args = {
      PTLR_BENCH_LAUNCH, "--n", std::to_string(kRanks), "--net",
      "uds:" + dir, "--timeout", num(timeout), "--grace-ms", "2000", "--",
      self_exe(), "--rank", "--dir", dir};
  if (mode == RankMode::kTraced) args.push_back("--traced");
  if (mode == RankMode::kSetupOnly) args.push_back("--setup-only");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  const std::string log = dir + "/launch.log";
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
  // Own process group (the ranks inherit it), so the deadline watchdog
  // can stop the launcher and every rank with one kill.
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);

  Launch l;
  pid_t pid = -1;
  l.t_spawn = mono_ns();
  const int rc = posix_spawn(&pid, argv[0], &fa, &attr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  posix_spawnattr_destroy(&attr);
  PTLR_CHECK(rc == 0, "cannot spawn " + args[0]);
  set_child_group(pid);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  l.t_exit = mono_ns();
  set_child_group(0);
  PTLR_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
             "ptlr-launch failed (status " + std::to_string(status) +
                 "), see " + log);
  for (int k = 0; k < kRanks; ++k)
    l.ranks.push_back(
        read_key_values(dir + "/rank" + std::to_string(k) + ".txt"));
  return l;
}

/// The untimed in-process oracle: the hash of each rank's owned tiles.
std::optional<std::vector<std::string>> run_oracle(const Options& opt,
                                                   Ledger& led) {
  led.begin_rep();
  try {
    const auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, kN,
                                          kGeometrySeed);
    tlr::TlrMatrix a = tlr::TlrMatrix::from_problem(prob, kTile, kAcc, 1);
    const tlr::RankStats rs = a.rank_stats();
    const auto dist = placement(kRanks);
    core::distributed_factorize(a, *dist, kAcc);
    led.add("tlr.footprint_mb",
            static_cast<double>(a.footprint_elements()) * 8.0 / 1e6);
    led.add("tlr.rank_mean", rs.avg);
    led.add("tlr.rank_max", rs.max);

    const auto z = gaussian_vector(kN, opt.seed);
    const double r = residual(prob, core::solve(a, z), z);
    led.note("residual", r);
    led.check(r <= 10.0 * kTol, "oracle residual " + num(r) + " > 10*tol");

    std::vector<std::string> rank_hash;
    const auto own = owners(*dist, a.nt());
    for (int rank = 0; rank < kRanks; ++rank)
      rank_hash.push_back(hex(factor_hash(a, own, rank)));
    led.note("factor_hash", hex(factor_hash(a)));
    return rank_hash;
  } catch (const std::exception& e) {
    led.check(false, std::string("oracle: ") + e.what());
    return std::nullopt;
  }
}

std::string rep_dir(const Options& opt, int rep) {
  // Relative to the working directory: the rendezvous sockets live here
  // and a UDS path is limited to ~107 bytes.
  return fs::relative(fs::absolute(out_base(opt) + ".r" + std::to_string(rep)))
      .string();
}

/// One rep: kSetupSamples - 1 setup-only launches (ranks stop after the
/// handshake), then the full launch. Returns the full launch's e2e
/// seconds, or a negative value on failure.
double mesh_rep(const Options& opt, Ledger& led,
                const std::vector<std::string>& oracle, int rep, bool traced) {
  led.begin_rep();
  const std::string dir = rep_dir(opt, rep);
  try {
    if (!traced)
      for (int k = 1; k < kSetupSamples; ++k)
        led.add("setup_s", launch(dir, RankMode::kSetupOnly).setup_seconds());
    const Launch l = launch(dir, traced ? RankMode::kTraced : RankMode::kTimed);
    const std::vector<KeyValues>& r = l.ranks;

    const double e2e = static_cast<double>(l.t_exit - l.t_spawn) / 1e9;
    const double spawn = static_cast<double>(l.t_spawn);
    if (!traced) {
      led.add("e2e_s", e2e);
      led.add("setup_s", l.setup_seconds());
      led.add("peak_rss_mb", max_of(r, "peak_rss_mb"));
      led.add("stars.make_problem_s", max_of(r, "make_problem_s"));
      // What of e2e lies outside every rank's program: exec, process
      // teardown and the launcher's reaping.
      led.add("core.unexplained_frac",
              1.0 - (max_of(r, "t_done_ns") - spawn) / 1e9 / e2e);

      led.add("core.dist.factor_s_max", max_of(r, "factor_s"));
      led.add("core.dist.factor_s_min", min_of(r, "factor_s"));
      led.add("tlr.from_problem_s", sum_of(r, "compress_s") / kRanks);
      led.add("core.dist.replica_compress_s", max_of(r, "compress_s"));
      double blocked_frac = 0.0;
      for (const auto& kv : r)
        blocked_frac = std::max(
            blocked_frac, get(kv, "blocked_recv_s") / get(kv, "factor_s"));
      led.add("core.dist.blocked_recv_s", max_of(r, "blocked_recv_s"));
      led.add("core.dist.blocked_frac", blocked_frac);
      const double hits = sum_of(r, "prefetch_hits");
      const double gets = hits + sum_of(r, "prefetch_misses");
      led.add("core.dist.prefetch_hit_ratio", gets > 0 ? hits / gets : 0.0);
      led.add("core.dist.messages", sum_of(r, "messages"));
      led.add("core.dist.payload_mb", sum_of(r, "payload_bytes") / 1e6);
      led.add("core.dist.root_egress_mb_max",
              max_of(r, "root_egress_bytes") / 1e6);
      led.add("core.dist.forwards", sum_of(r, "forwards"));

      const double frames = sum_of(r, "frames_sent");
      led.add("net.connect_s", max_of(r, "connect_s"));
      led.add("net.frames_sent", frames);
      led.add("net.wire_mb_sent", sum_of(r, "wire_bytes_sent") / 1e6);
      led.add("net.retransmits", sum_of(r, "retransmits"));
      led.add("net.retransmit_ratio",
              frames > 0 ? sum_of(r, "retransmits") / frames : 0.0);
      led.add("resilience.events", sum_of(r, "recovery_events"));
    } else {
      ClassTotals c;
      obs::CompressionCounters cc;
      for (const auto& kv : r) {
        for (std::size_t k = 0; k < kHcoreClasses.size(); ++k) {
          const std::string p = std::string("hcore.") + kHcoreClasses[k];
          c.count[k] += static_cast<long long>(get(kv, p + ".count"));
          c.seconds[k] += get(kv, p + ".s");
          c.flops[k] += get(kv, p + ".flops");
        }
        cc.count += static_cast<long long>(get(kv, "recompress.count"));
        cc.rank_in_sum += static_cast<long long>(get(kv, "recompress.rank_in_sum"));
        cc.rank_out_sum += static_cast<long long>(get(kv, "recompress.rank_out_sum"));
        cc.adaptive += static_cast<long long>(get(kv, "recompress.adaptive"));
        cc.fallbacks += static_cast<long long>(get(kv, "recompress.fallbacks"));
        cc.sketch_cols_sum +=
            static_cast<long long>(get(kv, "recompress.sketch_cols_sum"));
      }
      add_hcore(led, c);
      add_compress(led, cc);
      // Only rank 0 measures α/β; the others receive the decision.
      led.add("core.placement.alpha_us", get(r[0], "alpha_s") * 1e6);
      led.add("core.placement.beta_ns_per_b", get(r[0], "beta_s_per_b") * 1e9);
      led.add("core.placement.model_comm_s", get(r[0], "model_comm_s"));
    }

    for (int k = 0; k < kRanks; ++k) {
      const auto& h = r[static_cast<std::size_t>(k)].at("hash");
      led.check(h == oracle[static_cast<std::size_t>(k)],
                "rank " + std::to_string(k) +
                    " owned tiles differ from the in-process oracle");
    }
    const double events = sum_of(r, "recovery_events");
    led.check(events == 0,
              num(events) + " recovery events in a fault-free run");
    if (traced)
      for (int k = 0; k < kRanks; ++k) {
        const std::string name = "trace_rank" + std::to_string(k) + ".json";
        fs::rename(dir + "/" + name, out_base(opt) + "." + name);
      }
    fs::remove_all(dir);
    return e2e;
  } catch (const std::exception& e) {
    led.check(false, e.what());
    return -1.0;
  }
}

}  // namespace

void run_mesh(const Options& opt, Ledger& led) {
  led.note("problem", "st-3D-exp n=" + std::to_string(kN) + " b=" +
                          std::to_string(kTile) + " tol=" + num(kTol) +
                          " placement=band:" + std::to_string(kBandWidth) +
                          " ranks=" + std::to_string(kRanks) + " uds");
  const auto oracle = run_oracle(opt, led);
  if (!oracle) return;
  WallTimer budget;
  int rep = 0;
  for (; more_reps(rep, budget.seconds(), opt); ++rep)
    mesh_rep(opt, led, *oracle, rep, false);
  if (!opt.traced) return;
  const double traced = mesh_rep(opt, led, *oracle, rep, true);
  if (traced > 0 && led.has("e2e_s"))
    led.add("obs.trace_overhead", traced / led.median("e2e_s") - 1.0);
}

int rank_main(int argc, char** argv) try {
  std::string dir;
  bool traced = false, setup_only = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--traced") {
      traced = true;
    } else if (a == "--setup-only") {
      setup_only = true;
    } else if (a == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else {
      throw Error("rank mode: unexpected argument " + a);
    }
  }
  PTLR_CHECK(!dir.empty(), "rank mode needs --dir");

  KeyValues kv;
  auto stamp = [&](const char* key) { kv[key] = std::to_string(mono_ns()); };
  const net::NetConfig cfg = net::NetConfig::from_env();
  WallTimer t;
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DExp, kN, kGeometrySeed);
  kv["make_problem_s"] = num(t.seconds());

  std::optional<tlr::TlrMatrix> a;
  const auto dist = placement(cfg.nranks);
  {
    t.reset();
    net::SocketTransport transport(cfg);
    kv["connect_s"] = num(t.seconds());
    stamp("t_connected_ns");
    if (setup_only) {
      transport.drain();
      write_key_values(dir + "/rank" + std::to_string(cfg.rank) + ".txt", kv);
      return 0;
    }
    reset_peak_rss();

    t.reset();
    a.emplace(tlr::TlrMatrix::from_problem(prob, kTile, kAcc, 1));
    kv["compress_s"] = num(t.seconds());

    const auto opts = core::DistCommOptions::from_env();
    if (traced) {
      obs::enable(true);
      core::PlacementProblem pp;
      pp.nt = a->nt();
      pp.block = kTile;
      pp.band = kBandWidth;
      pp.avg_offband_rank = mean_offband_rank(*a, kBandWidth);
      pp.nranks = cfg.nranks;
      pp.tree = opts.tree;
      const core::PlacementChoice choice =
          core::negotiate_placement(transport, pp);
      kv["alpha_s"] = num(choice.params.alpha_seconds);
      kv["beta_s_per_b"] = num(choice.params.beta_seconds_per_byte);
      kv["model_comm_s"] = num(choice.cost_seconds[static_cast<int>(
          core::PlacementKind::kHybridBand)]);
    }

    const core::DistCholeskyResult res = core::distributed_factorize_rank(
        *a, *dist, kAcc, transport, {}, opts);
    const core::RankCommStats& cs = res.rank_comm.front();
    const net::PeerWireStats wire = transport.wire_stats();
    kv["factor_s"] = num(res.seconds);
    kv["messages"] = std::to_string(cs.messages);
    kv["payload_bytes"] = std::to_string(cs.bytes);
    kv["root_egress_bytes"] = std::to_string(cs.root_egress_bytes);
    kv["forwards"] = std::to_string(cs.forwards);
    kv["prefetch_hits"] = std::to_string(cs.prefetch_hits);
    kv["prefetch_misses"] = std::to_string(cs.prefetch_misses);
    kv["blocked_recv_s"] = num(cs.blocked_recv_seconds);
    kv["frames_sent"] = std::to_string(wire.msgs_sent);
    kv["wire_bytes_sent"] = std::to_string(wire.bytes_sent);
    kv["retransmits"] = std::to_string(wire.retransmits);
    kv["recovery_events"] = std::to_string(res.recovery.total());
  }
  stamp("t_done_ns");
  kv["peak_rss_mb"] = num(peak_rss_mb());
  kv["hash"] = hex(factor_hash(*a, owners(*dist, a->nt()), cfg.rank));

  if (traced) {
    obs::enable(false);
    const ClassTotals c = class_totals(obs::snapshot_spans());
    for (std::size_t k = 0; k < kHcoreClasses.size(); ++k) {
      const std::string p = std::string("hcore.") + kHcoreClasses[k];
      kv[p + ".count"] = std::to_string(c.count[k]);
      kv[p + ".s"] = num(c.seconds[k]);
      kv[p + ".flops"] = num(c.flops[k]);
    }
    const obs::CompressionCounters cc = obs::Counters::compressions();
    kv["recompress.count"] = std::to_string(cc.count);
    kv["recompress.rank_in_sum"] = std::to_string(cc.rank_in_sum);
    kv["recompress.rank_out_sum"] = std::to_string(cc.rank_out_sum);
    kv["recompress.adaptive"] = std::to_string(cc.adaptive);
    kv["recompress.fallbacks"] = std::to_string(cc.fallbacks);
    kv["recompress.sketch_cols_sum"] = std::to_string(cc.sketch_cols_sum);
    obs::write_chrome_trace(dir + "/trace_rank" + std::to_string(cfg.rank) +
                            ".json");
  }
  write_key_values(dir + "/rank" + std::to_string(cfg.rank) + ".txt", kv);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "ptlr_bench rank: " << e.what() << "\n";
  return 7;
}

}  // namespace ptlr_bench
