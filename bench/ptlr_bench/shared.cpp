// Shared-memory workloads of ptlr_bench: band_auto, tlr_thin, mle_fit.
//
// All three run st-3D-exp at tol 1e-6 with 2 worker threads. A rep is
// setup (problem generation, plus the exact simulation of z for mle_fit),
// then the timed pipeline, then untimed output checks.
#include <cmath>
#include <numbers>
#include <optional>

#include "bench.hpp"
#include "common/timer.hpp"
#include "core/cholesky.hpp"
#include "core/mle.hpp"
#include "core/solve.hpp"
#include "dense/lapack.hpp"
#include "resilience/stats.hpp"

namespace ptlr_bench {

using namespace ptlr;

namespace {

constexpr double kTol = 1e-6;
constexpr int kTile = 128;
constexpr int kThreads = 2;
const compress::Accuracy kAcc{kTol, 1 << 30};
constexpr double kTheta2 = 0.1;  // st-3D-exp correlation length

/// One pass of the pipeline: compress → factorize → answer.
struct Pass {
  double e2e = 0.0, compress = 0.0, factorize = 0.0, solve = 0.0;
  double obs_f0 = 0.0, obs_f1 = 0.0;  ///< factorize interval, obs clock
  tlr::RankStats ranks;               ///< off-band ranks after compression
  core::CholeskyResult chol;
  std::optional<tlr::TlrMatrix> factor;
  std::vector<double> x;  ///< Σ⁻¹z (full solve) or L⁻¹z (likelihood form)
  double logdet = 0.0;
  long long recovery_events = 0;
};

/// `band` 0 auto-tunes. The likelihood form (parallel_compress false,
/// full_solve false) is the exact call sequence of core::evaluate_mle.
Pass run_pass(const stars::CovarianceProblem& prob,
              const std::vector<double>& z, int band, int threads,
              bool parallel_compress, bool full_solve) {
  core::CholeskyConfig cfg;
  cfg.acc = kAcc;
  cfg.band_size = band;
  cfg.nthreads = threads;
  const resil::RecoveryStats before = resil::snapshot();

  Pass p;
  WallTimer total;
  WallTimer t;
  tlr::TlrMatrix a =
      parallel_compress
          ? tlr::TlrMatrix::from_problem_parallel(prob, kTile, kAcc, threads)
          : tlr::TlrMatrix::from_problem(prob, kTile, kAcc, 1);
  p.compress = t.seconds();
  p.ranks = a.rank_stats();
  t.reset();
  p.obs_f0 = obs::now_seconds();
  p.chol = core::factorize(a, &prob, cfg);
  p.obs_f1 = obs::now_seconds();
  p.factorize = t.seconds();
  t.reset();
  if (full_solve) {
    p.x = core::solve(a, z);
    p.logdet = core::log_det(a);
  } else {
    p.logdet = core::log_det(a);
    p.x = core::solve_lower(a, z);
  }
  p.solve = t.seconds();
  p.e2e = total.seconds();

  p.factor.emplace(std::move(a));
  p.recovery_events = resil::diff(before, resil::snapshot()).total();
  return p;
}

/// Layer metrics of one pass, plus the phase-ledger gate: compress +
/// factorize (tune/regen/graph/exec) + solve must account for e2e.
void record_pass(Ledger& led, const Pass& p) {
  const core::CholeskyResult& c = p.chol;
  const double exec = c.exec.seconds;
  led.add("tlr.from_problem_s", p.compress);
  led.add("tlr.regen_s", c.regen_seconds);
  led.add("tlr.footprint_mb",
          static_cast<double>(p.factor->footprint_elements()) * 8.0 / 1e6);
  led.add("tlr.rank_mean", p.ranks.avg);
  led.add("tlr.rank_max", p.ranks.max);
  led.add("core.tune_s", c.tune_seconds);
  led.add("core.band_size", c.band_size);
  led.add("core.factorize_s", p.factorize);
  led.add("core.graph_build_s",
          p.factorize - c.tune_seconds - c.regen_seconds - exec);
  led.add("core.graph_tasks", static_cast<double>(c.stats.tasks));
  led.add("core.solve_s", p.solve);
  const double unexplained =
      1.0 - (p.compress + p.factorize + p.solve) / p.e2e;
  led.add("core.unexplained_frac", unexplained);
  led.check(unexplained <= 0.05,
            "phase ledger leaves " + num(unexplained) + " of e2e unexplained");
  led.add("runtime.exec_s", exec);
  led.add("runtime.tasks_per_s",
          exec > 0 ? static_cast<double>(c.stats.tasks) / exec : 0.0);
  led.add("runtime.steals", static_cast<double>(c.exec.sched.steals));
  led.add("runtime.parks", static_cast<double>(c.exec.sched.parks));
  led.add("runtime.inline_runs", static_cast<double>(c.exec.sched.inline_runs));
  led.add("runtime.nested_spawned",
          static_cast<double>(c.exec.sched.nested_spawned));
}

void check_events(Ledger& led, long long events) {
  led.add("resilience.events", static_cast<double>(events));
  led.check(events == 0, std::to_string(events) +
                             " recovery events in a fault-free run");
}

/// The factor must hash identically in every rep (schedule invariance).
void check_hash(Ledger& led, const tlr::TlrMatrix& f, std::string& ref) {
  const std::string h = hex(factor_hash(f));
  if (ref.empty()) {
    ref = h;
    led.note("factor_hash", h);
  }
  led.check(h == ref, "factor hash " + h + " differs from rep 1's " + ref);
}

void check_residual(Ledger& led, double r) {
  led.note("residual", r);
  led.check(r <= 10.0 * kTol, "residual " + num(r) + " > 10*tol");
}

std::string trace_path(const Options& opt) {
  return out_base(opt) + ".trace.json";
}

/// Per-layer numbers of a traced factorization: span time per Table I
/// class in [f0, f1], occupancy of the worker pool, recompression counters.
void record_traced(Ledger& led, double f0, double f1, double exec,
                   int threads) {
  const ClassTotals c = class_totals(obs::snapshot_spans(), f0, f1);
  add_hcore(led, c);
  add_compress(led, obs::Counters::compressions());
  led.add("runtime.occupancy", c.span_seconds / (exec * threads));
  led.add("runtime.idle_s", exec * threads - c.span_seconds);
}

void add_trace_overhead(Ledger& led, double traced_e2e) {
  if (led.has("e2e_s"))
    led.add("obs.trace_overhead", traced_e2e / led.median("e2e_s") - 1.0);
}

// ------------------------------------------------ band_auto and tlr_thin

enum class Mode { kTimed, kTraced, kOneThread };

std::optional<Pass> pipeline_rep(Ledger& led, int n, int band,
                                 const std::vector<double>& z,
                                 std::string& ref_hash, Mode mode) {
  led.begin_rep();
  try {
    const int threads = mode == Mode::kOneThread ? 1 : kThreads;
    std::optional<stars::CovarianceProblem> prob;
    std::vector<double> setup;
    for (int k = 0; k < kSetupSamples; ++k) {
      const RotatingPin pin;
      WallTimer ts;
      prob.emplace(stars::make_problem(stars::ProblemKind::kSt3DExp, n,
                                       kGeometrySeed));
      setup.push_back(ts.seconds());
    }
    reset_peak_rss();
    Pass p = run_pass(*prob, z, band, threads, /*parallel_compress=*/true,
                      /*full_solve=*/true);
    const double rss = peak_rss_mb();
    if (mode == Mode::kTimed) {
      led.add("e2e_s", p.e2e);
      led.add("peak_rss_mb", rss);
      for (const double s : setup) {
        led.add("setup_s", s);
        led.add("stars.make_problem_s", s);
      }
      record_pass(led, p);
      check_events(led, p.recovery_events);
    }
    check_residual(led, residual(*prob, p.x, z));
    check_hash(led, *p.factor, ref_hash);
    return p;
  } catch (const std::exception& e) {
    led.check(false, e.what());
    return std::nullopt;
  }
}

void note_params(Ledger& led, int n, const std::string& band) {
  led.note("problem", "st-3D-exp n=" + std::to_string(n) + " b=" +
                          std::to_string(kTile) + " tol=" + num(kTol) +
                          " band=" + band + " threads=" +
                          std::to_string(kThreads));
}

void pipeline_workload(const Options& opt, Ledger& led, int n, int band) {
  note_params(led, n, band == 0 ? "auto" : std::to_string(band));
  const auto z = gaussian_vector(n, opt.seed);
  std::string ref_hash;
  WallTimer budget;
  for (int rep = 0; more_reps(rep, budget.seconds(), opt); ++rep)
    pipeline_rep(led, n, band, z, ref_hash, Mode::kTimed);
  if (!opt.traced) return;

  obs::reset();
  obs::enable(true);
  const auto traced = pipeline_rep(led, n, band, z, ref_hash, Mode::kTraced);
  obs::enable(false);
  if (traced) {
    record_traced(led, traced->obs_f0, traced->obs_f1,
                  traced->chol.exec.seconds, kThreads);
    add_trace_overhead(led, traced->e2e);
    obs::write_chrome_trace(trace_path(opt));
  }
  obs::reset();

  // Parallel efficiency of the executor: one 1-thread rep against the
  // median 2-thread exec time (the factor must still hash the same).
  const auto one = pipeline_rep(led, n, band, z, ref_hash, Mode::kOneThread);
  if (one && led.has("runtime.exec_s"))
    led.add("runtime.parallel_eff",
            one->chol.exec.seconds /
                (kThreads * led.median("runtime.exec_s")));
}

// ---------------------------------------------------------------- mle_fit

/// z ~ N(0, Σ(θ_true)) simulated exactly: z = L·w through a dense
/// Cholesky of the true covariance.
std::vector<double> simulate_observations(
    const stars::CovarianceProblem& truth, std::uint64_t seed) {
  const int n = truth.n();
  dense::Matrix l = truth.block(0, 0, n, n);
  dense::potrf(dense::Uplo::Lower, l.view());
  const auto w = gaussian_vector(n, seed);
  std::vector<double> z(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i)
      z[static_cast<std::size_t>(i)] += l(i, j) * w[static_cast<std::size_t>(j)];
  return z;
}

struct FitRep {
  core::MleFit fit;
  std::vector<double> z;
  double e2e = 0.0;
};

void mle_workload(const Options& opt, Ledger& led) {
  constexpr int n = 1536;
  note_params(led, n, "auto");
  core::MleOptimizerConfig cfg;
  cfg.geometry_seed = kGeometrySeed;
  cfg.tile_size = kTile;
  cfg.cholesky.acc = kAcc;
  cfg.cholesky.band_size = 0;
  cfg.cholesky.nthreads = kThreads;
  int ref_evals = -1;

  auto fit_rep = [&](bool timed) -> std::optional<FitRep> {
    led.begin_rep();
    try {
      FitRep r;
      std::vector<double> make_s, setup;
      for (int k = 0; k < kSetupSamples; ++k) {
        const RotatingPin pin;
        WallTimer ts;
        const auto truth = stars::make_st3d_matern(n, 1.0, kTheta2, 0.5,
                                                   kGeometrySeed, 1e-2);
        make_s.push_back(ts.seconds());
        r.z = simulate_observations(truth, opt.seed);
        setup.push_back(ts.seconds());
      }
      reset_peak_rss();
      const resil::RecoveryStats before = resil::snapshot();
      WallTimer t;
      r.fit = core::fit_theta2(r.z, cfg);
      r.e2e = t.seconds();
      const double rss = peak_rss_mb();
      const long long events = resil::diff(before, resil::snapshot()).total();
      if (timed) {
        led.add("e2e_s", r.e2e);
        led.add("peak_rss_mb", rss);
        for (int k = 0; k < kSetupSamples; ++k) {
          led.add("setup_s", setup[static_cast<std::size_t>(k)]);
          led.add("stars.make_problem_s", make_s[static_cast<std::size_t>(k)]);
        }
        led.add("core.mle_evals", r.fit.evaluations);
        led.add("core.mle_eval_s", r.e2e / r.fit.evaluations);
        check_events(led, events);
      }
      const double th = r.fit.theta2;
      led.note("theta2_hat", th);
      led.note("theta2_rel_err", std::abs(th - kTheta2) / kTheta2);
      led.note("mle_evaluations", r.fit.evaluations);
      led.check(th > kTheta2 / 2 && th < 2 * kTheta2,
                "fitted theta2 " + num(th) + " outside (theta/2, 2 theta)");
      if (ref_evals < 0) ref_evals = r.fit.evaluations;
      led.check(r.fit.evaluations == ref_evals,
                "evaluation count changed between reps");
      return r;
    } catch (const std::exception& e) {
      led.check(false, e.what());
      return std::nullopt;
    }
  };

  std::optional<FitRep> last;
  WallTimer budget;
  for (int rep = 0; more_reps(rep, budget.seconds(), opt); ++rep)
    if (auto r = fit_rep(true)) last = std::move(r);
  if (!last) return;

  // Layer numbers of one evaluation at θ̂₂, through the same public calls
  // evaluate_mle makes; its log-likelihood must reproduce the fit's.
  const double th = last->fit.theta2;
  const auto at_hat =
      stars::make_st3d_matern(n, 1.0, th, 0.5, kGeometrySeed, 1e-2);
  led.begin_rep();
  try {
    const Pass p = run_pass(at_hat, last->z, 0, kThreads,
                            /*parallel_compress=*/false,
                            /*full_solve=*/false);
    record_pass(led, p);
    double quad = 0.0;
    for (const double v : p.x) quad += v * v;
    const double ll = -0.5 * (n * std::log(2.0 * std::numbers::pi) +
                              p.logdet + quad);
    led.check(ll == last->fit.log_likelihood,
              "evaluation at theta2_hat gives log-likelihood " + num(ll) +
                  ", the fit reported " + num(last->fit.log_likelihood));
  } catch (const std::exception& e) {
    led.check(false, e.what());
  }
  if (!opt.traced) return;

  obs::reset();
  obs::enable(true);
  const auto traced = fit_rep(false);
  obs::enable(false);
  if (traced) {
    add_hcore(led, class_totals(obs::snapshot_spans()));
    add_compress(led, obs::Counters::compressions());
    add_trace_overhead(led, traced->e2e);
    obs::write_chrome_trace(trace_path(opt));
  }
  obs::reset();

  // Compression share and pool occupancy of one traced evaluate_mle at θ̂₂
  // (its compression is sequential, so every task span is factorization).
  led.begin_rep();
  try {
    obs::enable(true);
    WallTimer t;
    const core::MleEvaluation ev =
        core::evaluate_mle(at_hat, last->z, kTile, cfg.cholesky);
    const double wall = t.seconds();
    obs::enable(false);
    led.check(ev.log_likelihood == last->fit.log_likelihood,
              "evaluate_mle at theta2_hat disagrees with the fit");
    led.add("core.mle_compress_share", ev.compress_seconds / wall);
    const double exec = ev.cholesky.exec.seconds;
    const double busy = class_totals(obs::snapshot_spans()).span_seconds;
    led.add("runtime.occupancy", busy / (exec * kThreads));
    led.add("runtime.idle_s", exec * kThreads - busy);
  } catch (const std::exception& e) {
    obs::enable(false);
    led.check(false, e.what());
  }
  obs::reset();
}

}  // namespace

void run_shared(const Options& opt, Ledger& led) {
  if (opt.workload == "band_auto") {
    pipeline_workload(opt, led, 4096, /*band=*/0);
  } else if (opt.workload == "tlr_thin") {
    pipeline_workload(opt, led, 2048, /*band=*/1);
  } else {
    mle_workload(opt, led);
  }
}

}  // namespace ptlr_bench
