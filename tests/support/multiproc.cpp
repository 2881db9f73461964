#include "support/multiproc.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "support/scoped_env.hpp"

namespace ptlr::testing {

namespace {

std::map<std::string, std::function<int()>>& registry() {
  static std::map<std::string, std::function<int()>> r;
  return r;
}

std::string launcher_path() {
  if (const char* env = std::getenv("PTLR_LAUNCH");
      env != nullptr && env[0] != '\0')
    return env;
#ifdef PTLR_LAUNCH_PATH
  return PTLR_LAUNCH_PATH;
#else
  throw Error("ptlr-launch not found: set PTLR_LAUNCH");
#endif
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The test binary's own path. Resolved HERE, not passed as the literal
// "/proc/self/exe": the launcher's forked children would resolve that to
// the launcher binary, not to this one.
std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  PTLR_CHECK(n > 0, "launch_ranks: cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

}  // namespace

bool register_rank_case(const std::string& name, std::function<int()> fn) {
  registry()[name] = std::move(fn);
  return true;
}

void maybe_run_rank_case() {
  const char* name = std::getenv("PTLR_MP_CASE");
  if (name == nullptr || name[0] == '\0') return;
  // Safety net: a deadlocked mesh must become a descriptive error, not a
  // hung ctest run. Honour an explicit override.
  setenv("PTLR_WATCHDOG_MS", "30000", /*overwrite=*/0);
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::cerr << "multiproc: unknown rank case '" << name << "'\n";
    std::exit(105);
  }
  try {
    std::exit(it->second());
  } catch (const std::exception& e) {
    std::cerr << "multiproc: rank case '" << name
              << "' threw: " << e.what() << "\n";
    std::exit(106);
  }
}

std::string rank_case_args() {
  const char* v = std::getenv("PTLR_MP_ARGS");
  return v == nullptr ? "" : v;
}

bool LaunchResult::ok() const {
  if (launcher_code != 0 || rank_codes.empty()) return false;
  for (const int c : rank_codes)
    if (c != 0) return false;
  return true;
}

std::string LaunchResult::rank_output(int rank) const {
  const std::string prefix = "[rank " + std::to_string(rank) + "] ";
  std::istringstream in(output);
  std::ostringstream out;
  for (std::string line; std::getline(in, line);)
    if (line.rfind(prefix, 0) == 0) out << line.substr(prefix.size()) << "\n";
  return out.str();
}

LaunchResult launch_ranks(const std::string& name, int nranks,
                          const EnvList& env, const std::string& args,
                          double timeout_sec, int respawn,
                          const std::string& net) {
  PTLR_CHECK(nranks >= 1, "launch_ranks: need at least one rank");

  char tmpl[] = "/tmp/ptlr-mp-XXXXXX";
  PTLR_CHECK(mkdtemp(tmpl) != nullptr, "launch_ranks: mkdtemp failed");
  const std::string dir = tmpl;
  const std::string report = dir + "/report.txt";
  const std::string out_file = dir + "/output.txt";

  // The children inherit the launcher's environment, which inherits ours:
  // scoped overrides here land in every rank and are restored on return.
  std::vector<std::unique_ptr<ScopedEnv>> scoped;
  scoped.push_back(std::make_unique<ScopedEnv>("PTLR_MP_CASE", name.c_str()));
  scoped.push_back(std::make_unique<ScopedEnv>(
      "PTLR_MP_ARGS", args.empty() ? nullptr : args.c_str()));
  for (const auto& [key, value] : env)
    scoped.push_back(std::make_unique<ScopedEnv>(key, value.c_str()));

  std::ostringstream cmd;
  cmd << shell_quote(launcher_path()) << " --n " << nranks << " --report "
      << shell_quote(report) << " --timeout " << timeout_sec
      << " --grace-ms 15000";
  if (respawn > 0) cmd << " --respawn " << respawn;
  if (!net.empty()) cmd << " --net " << shell_quote(net);
  cmd << " -- " << shell_quote(self_exe()) << " > " << shell_quote(out_file)
      << " 2>&1";
  const int raw = std::system(cmd.str().c_str());

  LaunchResult res;
  res.launcher_code =
      WIFEXITED(raw) ? WEXITSTATUS(raw) : 128 + WTERMSIG(raw);
  res.output = slurp(out_file);
  res.rank_codes.assign(static_cast<std::size_t>(nranks), -1);
  res.rank_respawns.assign(static_cast<std::size_t>(nranks), 0);
  std::istringstream rep(slurp(report));
  std::string word;
  while (rep >> word) {
    int rank = -1, code = -1;
    std::string what;
    // "rank R respawns N" / "rank R exit C" / "rank R signal S (SIGNAME)".
    // The decoded signal name is a trailing token the `word` loop skips.
    if (word == "rank" && (rep >> rank >> what >> code) && rank >= 0 &&
        rank < nranks) {
      if (what == "respawns")
        res.rank_respawns[static_cast<std::size_t>(rank)] = code;
      else
        res.rank_codes[static_cast<std::size_t>(rank)] =
            what == "signal" ? 128 + code : code;
    }
  }

  ::unlink(report.c_str());
  ::unlink(out_file.c_str());
  ::rmdir(dir.c_str());
  return res;
}

}  // namespace ptlr::testing
