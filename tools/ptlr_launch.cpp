// ptlr-launch: run one command as N rank processes of a socket mesh.
//
//   ptlr-launch --n 2 [--net uds:<dir>|tcp:<host>:<port>] [--log-dir d]
//               [--report file] [--timeout sec] [--grace-ms ms]
//               [--respawn budget] [--respawn-backoff-ms ms]
//               -- <command> [args...]
//
// Forks N copies of <command>, giving each the environment the socket
// transport reads (PTLR_RANK, PTLR_NRANKS, PTLR_NET, PTLR_EPOCH) on top of
// the launcher's own environment, so seeds and observability knobs
// propagate unchanged. The literal token "{rank}" is substituted with the
// rank id in the command arguments AND in every inherited environment
// value — e.g. PTLR_TRACE_FILE=trace_rank{rank}.json gives per-rank trace
// files.
//
// Child stdout+stderr are multiplexed onto the launcher's stdout, each
// line prefixed "[rank r]"; --log-dir also tees each rank's raw output to
// <dir>/rank-<r>.log. When a rank dies (non-zero exit or signal) the
// survivors get a grace period to fail cleanly on their lost connections
// (the mesh converts the dead peer into a descriptive ptlr::Error), then
// are killed.
//
// --respawn <budget> turns signal deaths into restarts instead: up to
// `budget` times per rank, the launcher re-forks the dead rank with the
// same environment plus PTLR_EPOCH=<restart count>, after a linear backoff
// (--respawn-backoff-ms, default 250). The respawned process reloads its
// checkpoint (PTLR_CKPT) and rejoins the surviving mesh (the launcher
// defaults PTLR_NET_REJOIN_MS to 20000 when respawning is on, so survivors
// hold the lost peer open long enough). Orderly non-zero exits are never
// respawned — a rank that failed deliberately would fail again.
//
// --report writes machine-readable lines: first "rank R respawns N" per
// rank, then "rank R exit C" or "rank R signal S (SIGNAME)" with the final
// status. Exit status: 0 iff every rank (in its final incarnation) exited
// 0, else the first failing rank's code (128+signal for signals).
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "args.hpp"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;

std::string substitute_rank(std::string s, int rank) {
  const std::string token = "{rank}";
  const std::string value = std::to_string(rank);
  for (std::size_t pos = s.find(token); pos != std::string::npos;
       pos = s.find(token, pos + value.size()))
    s.replace(pos, token.size(), value);
  return s;
}

/// Name of the common deadly signals for the report and the log — "signal
/// 9" alone sends the reader to a man page mid-incident.
const char* sig_name(int sig) {
  switch (sig) {
    case SIGHUP: return "SIGHUP";
    case SIGINT: return "SIGINT";
    case SIGQUIT: return "SIGQUIT";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGSEGV: return "SIGSEGV";
    case SIGPIPE: return "SIGPIPE";
    case SIGTERM: return "SIGTERM";
    default: return nullptr;
  }
}

std::string describe_signal(int sig) {
  std::string s = std::to_string(sig);
  if (const char* name = sig_name(sig)) s += std::string(" (") + name + ")";
  return s;
}

struct Child {
  pid_t pid = -1;
  int out = -1;            // read end of the stdout+stderr pipe
  std::string partial;     // unterminated line tail
  std::ofstream log;
  bool reaped = false;
  int status = 0;          // raw waitpid status of the last incarnation
  int respawns = 0;        // restarts consumed (== epoch of current process)
  bool respawn_pending = false;
  Clock::time_point respawn_at{};
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "ptlr-launch: " << why << "\n"
            << "usage: ptlr-launch --n <ranks> [--net <spec>] [--log-dir d]"
               " [--report f] [--timeout sec] [--grace-ms ms]"
               " [--respawn budget] [--respawn-backoff-ms ms] --"
               " <command> [args...]\n";
  std::exit(2);
}

void emit_lines(Child& c, int rank, const char* data, std::size_t n) {
  if (c.log.is_open()) c.log.write(data, static_cast<std::streamsize>(n));
  c.partial.append(data, n);
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = c.partial.find('\n', start);
    if (nl == std::string::npos) break;
    std::cout << "[rank " << rank << "] "
              << c.partial.substr(start, nl - start) << "\n";
    start = nl + 1;
  }
  c.partial.erase(0, start);
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  int nranks = 0;
  std::string net, log_dir, report;
  double timeout_sec = 0.0;
  long long grace_ms = 10000;
  int respawn_budget = 0;
  long long respawn_backoff_ms = 250;
  int cmd_start = -1;

  // Not tools::Args: this loop must stop at "--". Numbers go through the
  // same strict parsing, so "--n 2x" is an error, not 2.
  using ptlr::tools::parse_int;
  using ptlr::tools::parse_real;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--") {
        cmd_start = i + 1;
        break;
      }
      if (i + 1 >= argc) usage_error("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--n")
        nranks = parse_int(a, v);
      else if (a == "--net")
        net = v;
      else if (a == "--log-dir")
        log_dir = v;
      else if (a == "--report")
        report = v;
      else if (a == "--timeout")
        timeout_sec = parse_real(a, v);
      else if (a == "--grace-ms")
        grace_ms = parse_int(a, v);
      else if (a == "--respawn")
        respawn_budget = parse_int(a, v);
      else if (a == "--respawn-backoff-ms")
        respawn_backoff_ms = parse_int(a, v);
      else
        usage_error("unknown flag " + a);
    }
  } catch (const ptlr::Error& e) {
    usage_error(e.what());
  }
  if (nranks < 1) usage_error("--n must be >= 1");
  if (respawn_budget < 0) usage_error("--respawn must be >= 0");
  if (cmd_start < 0 || cmd_start >= argc)
    usage_error("no command after --");

  // A respawned rank is useless if the survivors have already torn the
  // mesh down: respawning implies a rejoin window. Default one generously
  // longer than the backoff; an explicit PTLR_NET_REJOIN_MS wins.
  if (respawn_budget > 0)
    setenv("PTLR_NET_REJOIN_MS", "20000", /*overwrite=*/0);

  // Default rendezvous: a private UDS directory, removed on exit.
  std::string mesh_dir;
  if (net.empty()) {
    char tmpl[] = "/tmp/ptlr-mesh-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      std::perror("ptlr-launch: mkdtemp");
      return 2;
    }
    mesh_dir = tmpl;
    net = "uds:" + mesh_dir;
  }
  if (!log_dir.empty()) ::mkdir(log_dir.c_str(), 0755);

  std::vector<Child> kids(static_cast<std::size_t>(nranks));

  // Fork rank r (again). `epoch` is 0 for the initial launch and the
  // restart count for a respawn; the child reads it as PTLR_EPOCH.
  auto spawn = [&](int r, int epoch) -> bool {
    Child& c = kids[static_cast<std::size_t>(r)];
    // Flush whatever the previous incarnation left in its pipe (its write
    // end is closed, so this reads straight to EOF).
    if (c.out >= 0) {
      char buf[8192];
      ssize_t n;
      while ((n = ::read(c.out, buf, sizeof(buf))) > 0)
        emit_lines(c, r, buf, static_cast<std::size_t>(n));
      ::close(c.out);
      c.out = -1;
    }
    int fds[2];
    if (pipe(fds) != 0) {
      std::perror("ptlr-launch: pipe");
      return false;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("ptlr-launch: fork");
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      ::close(fds[0]);
      ::dup2(fds[1], STDOUT_FILENO);
      ::dup2(fds[1], STDERR_FILENO);
      ::close(fds[1]);
      setenv("PTLR_RANK", std::to_string(r).c_str(), 1);
      setenv("PTLR_NRANKS", std::to_string(nranks).c_str(), 1);
      setenv("PTLR_NET", net.c_str(), 1);
      setenv("PTLR_EPOCH", std::to_string(epoch).c_str(), 1);
      // Per-rank environment values: substitute "{rank}" wherever an
      // inherited value mentions it (e.g. PTLR_TRACE_FILE).
      for (char** e = environ; *e != nullptr; ++e) {
        const char* eq = std::strchr(*e, '=');
        if (eq == nullptr || std::strstr(eq + 1, "{rank}") == nullptr)
          continue;
        const std::string key(*e, static_cast<std::size_t>(eq - *e));
        setenv(key.c_str(), substitute_rank(eq + 1, r).c_str(), 1);
      }
      std::vector<std::string> args;
      for (int i = cmd_start; i < argc; ++i)
        args.push_back(substitute_rank(argv[i], r));
      std::vector<char*> cargs;
      cargs.reserve(args.size() + 1);
      for (auto& s : args) cargs.push_back(s.data());
      cargs.push_back(nullptr);
      execvp(cargs[0], cargs.data());
      std::perror("ptlr-launch: exec");
      _exit(127);
    }
    ::close(fds[1]);
    c.pid = pid;
    c.out = fds[0];
    c.reaped = false;
    c.status = 0;
    c.respawn_pending = false;
    if (!log_dir.empty() && !c.log.is_open())
      c.log.open(log_dir + "/rank-" + std::to_string(r) + ".log");
    return true;
  };

  for (int r = 0; r < nranks; ++r)
    if (!spawn(r, /*epoch=*/0)) return 2;

  const auto t0 = Clock::now();
  bool failure_seen = false;
  Clock::time_point grace_deadline{};
  bool killed = false;

  auto alive = [&] {
    for (const auto& c : kids)
      if (!c.reaped || c.respawn_pending) return true;
    return false;
  };

  while (alive()) {
    std::vector<pollfd> pfds;
    std::vector<int> owner;
    for (int r = 0; r < nranks; ++r) {
      Child& c = kids[static_cast<std::size_t>(r)];
      if (c.out >= 0) {
        pfds.push_back(pollfd{c.out, POLLIN, 0});
        owner.push_back(r);
      }
    }
    if (!pfds.empty()) {
      const int rc = ::poll(pfds.data(), pfds.size(), 100);
      if (rc < 0 && errno != EINTR) break;
      char buf[8192];
      for (std::size_t k = 0; k < pfds.size(); ++k) {
        if ((pfds[k].revents & (POLLIN | POLLHUP)) == 0) continue;
        Child& c = kids[static_cast<std::size_t>(owner[k])];
        const auto n = ::read(c.out, buf, sizeof(buf));
        if (n > 0) {
          emit_lines(c, owner[k], buf, static_cast<std::size_t>(n));
        } else if (n == 0 || (n < 0 && errno != EINTR)) {
          ::close(c.out);
          c.out = -1;
        }
      }
    } else {
      // Nothing to poll while every pipe is closed (e.g. all ranks waiting
      // on a respawn backoff) — don't spin.
      ::usleep(100 * 1000);
    }
    // Reap exits.
    for (int r = 0; r < nranks; ++r) {
      Child& c = kids[static_cast<std::size_t>(r)];
      if (c.reaped || c.pid < 0) continue;
      int status = 0;
      const pid_t w = ::waitpid(c.pid, &status, WNOHANG);
      if (w != c.pid) continue;
      c.reaped = true;
      c.status = status;
      const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (ok) continue;
      // Signal deaths are the crashes respawning exists for; deliberate
      // non-zero exits are not retried. Once the endgame started (grace
      // kill or timeout) no new processes are created.
      if (WIFSIGNALED(status) && !killed && !failure_seen &&
          c.respawns < respawn_budget) {
        c.respawns += 1;
        c.respawn_pending = true;
        c.respawn_at = Clock::now() + std::chrono::milliseconds(
                                          respawn_backoff_ms * c.respawns);
        std::cout << "[launch] rank " << r << " died (signal "
                  << describe_signal(WTERMSIG(status)) << "); respawning in "
                  << respawn_backoff_ms * c.respawns << " ms (attempt "
                  << c.respawns << " of " << respawn_budget << ")\n";
        continue;
      }
      if (!failure_seen) {
        failure_seen = true;
        grace_deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
        if (WIFSIGNALED(status))
          std::cout << "[launch] rank " << r << " died (signal "
                    << describe_signal(WTERMSIG(status))
                    << "); giving survivors " << grace_ms
                    << " ms to fail over\n";
        else
          std::cout << "[launch] rank " << r << " exited "
                    << WEXITSTATUS(status) << "; giving survivors "
                    << grace_ms << " ms to fail over\n";
      }
    }
    // Fire due respawns.
    if (!killed && !failure_seen) {
      for (int r = 0; r < nranks; ++r) {
        Child& c = kids[static_cast<std::size_t>(r)];
        if (!c.respawn_pending || Clock::now() < c.respawn_at) continue;
        std::cout << "[launch] respawning rank " << r << " (epoch "
                  << c.respawns << ")\n";
        if (!spawn(r, /*epoch=*/c.respawns)) {
          c.respawn_pending = false;
          failure_seen = true;
          grace_deadline =
              Clock::now() + std::chrono::milliseconds(grace_ms);
        }
      }
    }
    const auto now = Clock::now();
    const bool overall_timeout =
        timeout_sec > 0.0 &&
        std::chrono::duration<double>(now - t0).count() > timeout_sec;
    if (!killed &&
        (overall_timeout || (failure_seen && now >= grace_deadline))) {
      killed = true;
      if (overall_timeout)
        std::cout << "[launch] timeout after " << timeout_sec
                  << " s; killing remaining ranks\n";
      for (auto& c : kids) {
        c.respawn_pending = false;  // the endgame cancels pending restarts
        if (!c.reaped && c.pid > 0) ::kill(c.pid, SIGKILL);
      }
    }
  }

  // Flush unterminated tails and close pipes.
  for (int r = 0; r < nranks; ++r) {
    Child& c = kids[static_cast<std::size_t>(r)];
    if (!c.partial.empty()) {
      std::cout << "[rank " << r << "] " << c.partial << "\n";
      c.partial.clear();
    }
    if (c.out >= 0) ::close(c.out);
  }

  int exit_code = 0;
  std::ofstream rep;
  if (!report.empty()) rep.open(report);
  // Respawn counters first, final statuses second: a reader folding the
  // stream into per-rank state ends on the authoritative status lines.
  if (rep.is_open())
    for (int r = 0; r < nranks; ++r)
      rep << "rank " << r << " respawns "
          << kids[static_cast<std::size_t>(r)].respawns << "\n";
  for (int r = 0; r < nranks; ++r) {
    const int status = kids[static_cast<std::size_t>(r)].status;
    int code;
    if (WIFSIGNALED(status)) {
      code = 128 + WTERMSIG(status);
      if (rep.is_open())
        rep << "rank " << r << " signal "
            << describe_signal(WTERMSIG(status)) << "\n";
    } else {
      code = WEXITSTATUS(status);
      if (rep.is_open()) rep << "rank " << r << " exit " << code << "\n";
    }
    if (code != 0 && exit_code == 0) exit_code = code;
  }

  if (!mesh_dir.empty()) {
    for (int r = 0; r < nranks; ++r)
      ::unlink((mesh_dir + "/ptlr." + std::to_string(r) + ".sock").c_str());
    ::rmdir(mesh_dir.c_str());
  }
  if (exit_code == 0)
    std::cout << "[launch] all " << nranks << " ranks exited cleanly\n";
  return exit_code;
}
