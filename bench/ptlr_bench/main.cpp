// ptlr_bench — whole-pipeline and socket-mesh benchmark of PTLR.
//
//   ptlr_bench --workload <band_auto|tlr_thin|mle_fit|mesh4> --seed <s>
//              --out <result.json> [--seconds <budget>] [--traced]
//   ptlr_bench --list
//
// One workload per process, so peak RSS, thread-local scratch arenas and
// the obs globals never leak between workloads. The timed reps (tracing
// off) give the end-to-end metrics; --traced adds one traced rep for the
// per-layer numbers and writes the Chrome trace(s) next to the result.
// Exit status: 0 when every rep passed its checks, 1 when any failed,
// 2 on a usage error, 3 when a rep passed its deadline.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "compress/compress.hpp"
#include "compress/methods.hpp"
#include "core/tile_flow.hpp"
#include "runtime/scheduler.hpp"

extern char** environ;

namespace ptlr_bench {

namespace {

std::int64_t g_start_ns = 0;
std::atomic<std::int64_t> g_deadline_ns{0};
std::atomic<int> g_child_group{0};

constexpr std::int64_t seconds_ns(double s) {
  return static_cast<std::int64_t>(s * 1e9);
}

/// Kills whatever the current rep started and ends the process when the
/// rep passes its deadline, leaving a failed result behind.
class Watchdog {
 public:
  Watchdog(const Options& opt, const Ledger& led)
      : opt_(opt), led_(led), thread_([this] { loop(); }) {}
  ~Watchdog() {
    stop_.store(true);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const std::int64_t dl = g_deadline_ns.load();
      if (dl == 0 || mono_ns() < dl) continue;
      if (const int pg = g_child_group.load(); pg > 0) kill(-pg, SIGKILL);
      std::ofstream f(opt_.out);
      f << "{\n  \"bench\": \"ptlr_bench\",\n  \"workload\": \""
        << opt_.workload << "\",\n  \"seed\": " << opt_.seed << ",\n"
        << "  \"correct\": false,\n  \"attempted\": " << led_.attempted()
        << ",\n  \"failed\": " << led_.failed() + 1
        << ",\n  \"failures\": [\"rep " << led_.attempted()
        << " passed its deadline\"],\n  \"metrics\": {}\n}\n";
      f.flush();
      std::cerr << "ptlr_bench: rep " << led_.attempted()
                << " passed its deadline\n";
      _exit(3);
    }
  }

  const Options& opt_;
  const Ledger& led_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: it reads the members above
};

/// HEAD of the source tree's git checkout, read from .git without running
/// git; "unknown" outside a checkout.
std::string git_commit() {
  const std::string git = std::string(PTLR_BENCH_SOURCE_DIR) + "/.git/";
  std::ifstream head(git + "HEAD");
  std::string line;
  if (!std::getline(head, line)) return "unknown";
  if (line.rfind("ref: ", 0) != 0) return line;
  const std::string ref = line.substr(5);
  std::ifstream loose(git + ref);
  if (std::getline(loose, line)) return line;
  std::ifstream packed(git + "packed-refs");
  while (std::getline(packed, line)) {
    const auto sp = line.find(' ');
    if (sp != std::string::npos && line.substr(sp + 1) == ref)
      return line.substr(0, sp);
  }
  return "unknown";
}

std::string manifest_json() {
  std::ostringstream os;
  os << "{\"commit\": \"" << git_commit() << "\", \"build_type\": \""
     << PTLR_BENCH_BUILD_TYPE << "\", \"nproc\": "
     << std::thread::hardware_concurrency() << ", \"env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const auto eq = kv.find('=');
    if (kv.rfind("PTLR_", 0) != 0 || eq == std::string::npos) continue;
    os << (first ? "" : ", ") << "\"" << kv.substr(0, eq) << "\": \""
       << kv.substr(eq + 1) << "\"";
    first = false;
  }
  const auto dist = ptlr::core::DistCommOptions::from_env();
  os << "}, \"resolved\": {\"compress\": \""
     << ptlr::compress::to_string(
            ptlr::compress::CompressPolicy::from_env().method)
     << "\", \"sched\": \""
     << ptlr::rt::scheduler_name(ptlr::rt::resolve_scheduler(
            ptlr::rt::SchedulerKind::kAuto, 2, false))
     << "\", \"bcast\": \"" << (dist.tree ? "tree" : "flat")
     << "\", \"lookahead\": " << dist.lookahead << "}}";
  return os.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ptlr_bench: " << why
            << "\nusage: ptlr_bench --workload <name> --seed <s> --out "
               "<file.json> [--seconds <budget>] [--traced]\n"
               "       ptlr_bench --list\n";
  std::exit(2);
}

}  // namespace

void arm_rep_deadline() {
  const std::int64_t now = mono_ns();
  g_deadline_ns.store(
      std::min(now + seconds_ns(kRepDeadlineSeconds),
               g_start_ns + seconds_ns(kInvocationDeadlineSeconds)));
}

double rep_seconds_left() {
  return static_cast<double>(g_deadline_ns.load() - mono_ns()) / 1e9;
}

void set_child_group(int pgid) { g_child_group.store(pgid); }

bool more_reps(int done, double elapsed, const Options& opt) {
  // Past half the invocation deadline, stop early rather than let the
  // traced reps run into it.
  const double invocation = static_cast<double>(mono_ns() - g_start_ns) / 1e9;
  if (done >= kMaxReps || (done > 0 && invocation > kInvocationDeadlineSeconds / 2))
    return false;
  return done < kMinReps || elapsed < opt.seconds;
}

std::string out_base(const Options& opt) {
  std::string base = opt.out;
  const auto dot = base.rfind(".json");
  if (dot != std::string::npos) base.erase(dot);
  return base;
}

}  // namespace ptlr_bench

int main(int argc, char** argv) {
  using namespace ptlr_bench;
  if (argc > 1 && std::strcmp(argv[1], "--rank") == 0)
    return rank_main(argc, argv);

  Options opt;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      std::cout << catalogue_json();
      return 0;
    }
    if (a == "--traced") {
      opt.traced = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      seed_given = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--out") {
      opt.out = v;
    } else {
      usage("unknown flag " + a);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end())
    usage("unknown workload '" + opt.workload + "'");
  if (!seed_given || opt.out.empty()) usage("--seed and --out are required");
  // These knobs change the program being measured.
  for (const char* knob : {"PTLR_FAULTS", "PTLR_PERTURB_SEED", "PTLR_TRACE"})
    if (std::getenv(knob) != nullptr)
      usage(std::string(knob) + " is set; unset it to benchmark");

  g_start_ns = mono_ns();
  Ledger led;
  std::ostringstream head;
  head << "  \"bench\": \"ptlr_bench\",\n  \"workload\": \"" << opt.workload
       << "\",\n  \"seed\": " << opt.seed << ",\n  \"seconds\": "
       << num(opt.seconds) << ",\n  \"traced\": "
       << (opt.traced ? "true" : "false")
       << ",\n  \"manifest\": " << manifest_json() << ",\n";
  {
    Watchdog watchdog(opt, led);
    if (opt.workload == "mesh4")
      run_mesh(opt, led);
    else
      run_shared(opt, led);
    g_deadline_ns.store(0);
  }
  std::ofstream f(opt.out);
  f << led.to_json(head.str());
  f.flush();
  if (!f.good()) {
    std::cerr << "ptlr_bench: cannot write " << opt.out << "\n";
    return 1;
  }
  std::cout << "ptlr_bench " << opt.workload << " seed " << opt.seed << ": "
            << led.attempted() - led.failed() << "/" << led.attempted()
            << " reps passed, result in " << opt.out << "\n";
  return led.failed() == 0 ? 0 : 1;
}
