// Multi-process test harness: run gtest cases whose bodies are REAL OS
// processes on the socket mesh (src/net).
//
// A test binary registers named "rank cases" — the per-rank programs — and
// calls maybe_run_rank_case() first thing in main(). The gtest side then
// calls launch_ranks("case", n): the harness re-executes THIS binary
// (/proc/self/exe) n times under tools/ptlr-launch, which wires up the UDS
// rendezvous environment; each child sees PTLR_MP_CASE and runs its rank
// case instead of gtest. The result collects per-rank exit codes and the
// multiplexed output, so an assertion can quote the losing rank's stderr.
//
//   PTLR_RANK_CASE(dist_bitwise) {
//     net::SocketTransport t;             // env from ptlr-launch
//     ... factor, compare, return 0 on success ...
//   }
//   int main(int argc, char** argv) {
//     ptlr::testing::maybe_run_rank_case();          // child path
//     ::testing::InitGoogleTest(&argc, argv);        // parent path
//     return RUN_ALL_TESTS();
//   }
//   TEST(Dist, Bitwise) {
//     const auto r = ptlr::testing::launch_ranks("dist_bitwise", 2);
//     ASSERT_TRUE(r.ok()) << r.output;
//   }
//
// The launcher binary is found via the PTLR_LAUNCH_PATH compile definition
// (set by tests/CMakeLists.txt) or a PTLR_LAUNCH environment override.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ptlr::testing {

/// Register `fn` as the body of rank case `name`. Returns true (static
/// initializer). Prefer the PTLR_RANK_CASE macro.
bool register_rank_case(const std::string& name, std::function<int()> fn);

/// If PTLR_MP_CASE is set, run that rank case and exit the process with
/// its return value (105 for an unknown case, 106 for an escaped
/// exception). Returns (doing nothing) when PTLR_MP_CASE is unset.
void maybe_run_rank_case();

/// Extra environment for every rank of a launch, e.g. {{"PTLR_FAULTS",
/// "seed=3,..."}}. Values land in the children via the launcher.
using EnvList = std::vector<std::pair<std::string, std::string>>;

struct LaunchResult {
  int launcher_code = -1;        ///< ptlr-launch exit status
  std::vector<int> rank_codes;   ///< per-rank exit code (128+sig: signal)
  std::vector<int> rank_respawns;  ///< launcher restarts per rank
  std::string output;            ///< multiplexed "[rank r] ..." transcript

  /// Every rank launched, exited, and returned 0.
  [[nodiscard]] bool ok() const;

  /// Lines of `output` belonging to `rank`, prefix stripped.
  [[nodiscard]] std::string rank_output(int rank) const;
};

/// Launch `nranks` processes of THIS test binary running rank case `name`
/// via ptlr-launch (UDS mesh in a private directory, or the `net` spec —
/// e.g. "tcp:127.0.0.1:<base_port>" — passed as --net). `env` is set for
/// the children (and restored in the parent); `args` are forwarded to the
/// rank case via PTLR_MP_ARGS. `respawn` > 0 passes --respawn to the
/// launcher, so signal deaths are restarted instead of failing the run.
/// Never throws on rank failure — inspect the result — but throws
/// ptlr::Error if the launcher itself cannot run.
LaunchResult launch_ranks(const std::string& name, int nranks,
                          const EnvList& env = {},
                          const std::string& args = "",
                          double timeout_sec = 120.0, int respawn = 0,
                          const std::string& net = "");

/// PTLR_MP_ARGS value of this rank process ("" when absent): the `args`
/// string the launching test passed.
std::string rank_case_args();

}  // namespace ptlr::testing

/// Define + register a rank case in one go:
///   PTLR_RANK_CASE(name) { ...body...; return 0; }
#define PTLR_RANK_CASE(name)                                              \
  static int ptlr_rank_case_##name();                                     \
  static const bool ptlr_rank_case_reg_##name =                           \
      ::ptlr::testing::register_rank_case(#name, &ptlr_rank_case_##name); \
  static int ptlr_rank_case_##name()
