// ptlr_bench: one binary, one workload per process (see README.md).
//
// The benchmark measures PTLR only from outside: every number is a timer
// around a call into the public API of stars, tlr, core, runtime or net, a
// field of a result struct those calls return, or an aggregate of the obs
// spans and counters a traced rep records. Nothing under src/ is changed
// to serve it.
#pragma once

#include <sched.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dense/matrix.hpp"
#include "obs/trace.hpp"
#include "stars/problem.hpp"
#include "tlr/tlr_matrix.hpp"

namespace ptlr_bench {

// ------------------------------------------------------------- catalogue

/// "Layer metric X should move end-to-end metric `metric` on `workloads`."
struct Moves {
  std::string metric;
  std::vector<std::string> workloads;
};

struct MetricDef {
  std::string name;
  std::string unit;
  /// Measured in the extra traced rep (obs on) instead of the timed reps.
  bool traced = false;
  std::vector<Moves> moves;  ///< empty for end-to-end metrics
  bool higher_is_better = false;
};

const std::vector<std::string>& workload_names();
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& layer_metrics();
/// The catalogue as JSON (what `ptlr_bench --list` prints).
std::string catalogue_json();

/// Table I kernel classes in flops::Kernel order, as metric name parts.
inline constexpr std::array<const char*, 10> kHcoreClasses = {
    "potrf1", "trsm1", "trsm4", "syrk1", "syrk3",
    "gemm1",  "gemm2", "gemm3", "gemm5", "gemm6"};

// ---------------------------------------------------------------- ledger

/// Samples of every metric plus the attempt/failure accounting of one
/// invocation. A rep fails on an exception or on any failed check; it is
/// counted once however many of its checks fail.
class Ledger {
 public:
  void begin_rep();
  /// Record a failed check of the current rep (no-op when `ok`).
  void check(bool ok, const std::string& what);
  /// One sample of a catalogued metric; an unknown name throws.
  void add(const std::string& metric, double value);
  /// A non-metric fact about the run (parameters, residual, fitted θ₂,
  /// factor hash).
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);

  [[nodiscard]] double median(const std::string& metric) const;
  [[nodiscard]] bool has(const std::string& metric) const;
  [[nodiscard]] int attempted() const { return attempted_.load(); }
  [[nodiscard]] int failed() const { return failed_.load(); }

  /// The result document: `head` (workload, manifest), then verdict,
  /// counts, failures, notes and one row (median/min/max/reps) per
  /// catalogued metric.
  [[nodiscard]] std::string to_json(const std::string& head) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> failures_;
  // Read by the deadline watchdog thread.
  std::atomic<int> attempted_{0};
  std::atomic<int> failed_{0};
  bool rep_failed_ = false;
};

// ------------------------------------------------------------ invocation

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 12.0;  ///< measuring budget of the timed reps
  bool traced = false;    ///< add the traced rep(s) for layer metrics
  std::string out;        ///< result JSON path; traces go next to it
};

/// Timed reps: at least kMinReps, then more until the budget is spent.
inline constexpr int kMinReps = 3;
/// Setup runs this many times per rep (mesh4: extra setup-only launches),
/// so setup_s is a median over many samples.
inline constexpr int kSetupSamples = 4;
inline constexpr int kMaxReps = 50;
/// A rep passing this deadline counts as failed and ends the invocation.
inline constexpr double kRepDeadlineSeconds = 120.0;
/// No rep may run past this point of the invocation.
inline constexpr double kInvocationDeadlineSeconds = 150.0;

/// Arm the watchdog for the rep about to start (Ledger::begin_rep does).
void arm_rep_deadline();
/// Seconds left until the current rep's deadline.
double rep_seconds_left();
/// Process group the watchdog kills when it fires (0 = none).
void set_child_group(int pgid);

/// Keep running timed reps? (min reps, measuring budget, deadlines)
bool more_reps(int done, double elapsed, const Options& opt);

/// `opt.out` without its ".json": traces and rank directories go next to
/// the result under this prefix.
std::string out_base(const Options& opt);

void run_shared(const Options& opt, Ledger& led);  // band_auto tlr_thin mle_fit
void run_mesh(const Options& opt, Ledger& led);    // mesh4
/// Rank-process entry of mesh4 (launched through ptlr-launch).
int rank_main(int argc, char** argv);

// --------------------------------------------------------------- probes

/// Monotonic clock in ns (CLOCK_MONOTONIC, shared by every process on
/// the host, so rank timestamps compare with the parent's).
std::int64_t mono_ns();

/// While alive, pins the calling thread to one CPU of the process's
/// affinity mask, the next one in turn for each new instance. The shared
/// workloads time each setup sample under one: setup is single-threaded
/// and short, and on a shared host the cores differ in speed by up to
/// half, so unpinned samples tell more about where the scheduler put the
/// thread than about the code.
class RotatingPin {
 public:
  RotatingPin();
  ~RotatingPin();
  RotatingPin(const RotatingPin&) = delete;
  RotatingPin& operator=(const RotatingPin&) = delete;

 private:
  cpu_set_t saved_{};
};

/// Reset VmHWM to the current RSS after returning freed heap to the OS, so
/// the next read is the peak of what follows, on top of what is live now.
void reset_peak_rss();
/// VmHWM in MB (1e6 bytes).
double peak_rss_mb();

/// Every workload factors the same st-3D-exp instance: the point cloud
/// comes from this fixed seed (the one the paper benches in bench/ use), so
/// the work per rep does not vary with --seed. --seed drives the
/// observations: the right-hand side z, and for mle_fit the white noise the
/// measurements are simulated from.
inline constexpr std::uint64_t kGeometrySeed = 42;

/// N(0, 1) draws from `seed`.
std::vector<double> gaussian_vector(int n, std::uint64_t seed);

/// ‖z − Σx‖ / ‖z‖ with Σ evaluated entry-exactly from the problem.
double residual(const ptlr::stars::CovarianceProblem& prob,
                const std::vector<double>& x, const std::vector<double>& z);

/// FNV-1a over tlr::tile_to_bytes of the lower-triangle tiles, in row-major
/// order; `owner`/`rank` restrict it to one rank's tiles (rank < 0: all).
std::uint64_t factor_hash(const ptlr::tlr::TlrMatrix& a,
                          const std::vector<int>& owner = {}, int rank = -1);
std::string hex(std::uint64_t v);

/// Per-class totals of task spans whose interval lies in [t0, t1].
struct ClassTotals {
  std::array<long long, 10> count{};
  std::array<double, 10> seconds{};
  std::array<double, 10> flops{};
  double span_seconds = 0.0;  ///< every task span in the window
};
ClassTotals class_totals(const std::vector<ptlr::obs::Span>& spans,
                         double t0 = -1e300, double t1 = 1e300);
/// hcore.<class>.{count,s,gflops} from the totals.
void add_hcore(Ledger& led, const ClassTotals& c);
/// compress.* from (summed) obs recompression counters.
void add_compress(Ledger& led, const ptlr::obs::CompressionCounters& c);

/// "key value" lines (the rank → parent report format).
using KeyValues = std::map<std::string, std::string>;
KeyValues read_key_values(const std::string& path);
void write_key_values(const std::string& path, const KeyValues& kv);
std::string num(double v);  ///< shortest exact decimal of v

}  // namespace ptlr_bench
