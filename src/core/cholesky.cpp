#include "core/cholesky.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace ptlr::core {

CholeskyResult factorize(tlr::TlrMatrix& a,
                         const stars::CovarianceProblem* regen,
                         const CholeskyConfig& cfg) {
  CholeskyResult result;
  const resil::RecoveryStats recovery_before = resil::snapshot();

  // Step 1: BAND_SIZE — auto-tuned from the initial rank distribution
  // (Algorithm 1) or forced by the caller.
  if (cfg.band_size <= 0) {
    WallTimer t;
    const RankMap ranks = RankMap::from_matrix(a);
    result.tuning = tune_band_size(ranks, 0, cfg.fluctuation_lo);
    result.band_size = result.tuning.band_size;
    result.tune_seconds = t.seconds();
  } else {
    result.band_size = cfg.band_size;
  }

  // Step 2: roll the band back to dense (regenerating exactly when the
  // problem generator is available — the paper's regeneration step), one
  // tile per task on the factorization's workers.
  if (result.band_size > a.band_size()) {
    WallTimer t;
    a.densify_band(result.band_size, regen, cfg.nthreads);
    result.regen_seconds = t.seconds();
  }

  // Step 3: build and execute the dataflow graph.
  GraphOptions opt;
  opt.acc = cfg.acc;
  rt::TaskGraph g = build_cholesky_graph(a, opt, &result.stats);
  result.model_flops = result.stats.model_flops;

  // Run metadata rides along in the structured trace file so an exported
  // trace is self-describing.
  if (obs::enabled()) {
    obs::set_metadata("n", std::to_string(a.n()));
    obs::set_metadata("tile_size", std::to_string(a.tile_size()));
    obs::set_metadata("band_size", std::to_string(result.band_size));
    obs::set_metadata("nthreads", std::to_string(cfg.nthreads));
    obs::set_metadata("tolerance", std::to_string(cfg.acc.tol));
    obs::set_metadata("tasks", std::to_string(result.stats.tasks));
  }

  flops::Region flop_region;
  rt::ExecOptions exec_opts;
  exec_opts.perturb = cfg.perturb;
  exec_opts.faults = cfg.faults;
  exec_opts.retry = cfg.retry;
  exec_opts.watchdog = cfg.watchdog;

  // Shift-and-restart needs a pristine copy to refactorize from (an
  // aborted attempt leaves `a` partially overwritten) and the diagonal
  // scale for the automatic shift. Both are paid only when the policy is
  // armed.
  const bool shift_policy = cfg.breakdown.action ==
                            resil::BreakdownPolicy::Action::kShiftAndRestart;
  std::optional<tlr::TlrMatrix> backup;
  double mean_diag = 1.0;
  if (shift_policy) {
    backup = a;
    double sum = 0.0;
    long long count = 0;
    for (int i = 0; i < a.nt(); ++i) {
      const dense::Matrix& d = a.at(i, i).dense_data();
      for (int r = 0; r < d.rows(); ++r) {
        sum += std::abs(d(r, r));
        ++count;
      }
    }
    if (count > 0 && sum > 0.0) mean_diag = sum / static_cast<double>(count);
  }

  for (;;) {
    try {
      result.exec = rt::execute(g, cfg.nthreads, exec_opts);
      break;
    } catch (const NumericalError& e) {
      if (!shift_policy || result.restarts >= cfg.breakdown.max_restarts)
        throw;
      // Grow the shift geometrically from the configured (or automatic)
      // base, restore the pristine matrix, bump its diagonal, and rebuild
      // the graph — tile formats may have mutated during the failed run.
      const double base =
          cfg.breakdown.shift > 0.0
              ? cfg.breakdown.shift
              : std::sqrt(std::numeric_limits<double>::epsilon()) * mean_diag;
      result.shift =
          result.restarts == 0 ? base : result.shift * cfg.breakdown.growth;
      result.restarts++;
      a = *backup;
      for (int i = 0; i < a.nt(); ++i) {
        dense::Matrix& d = a.at(i, i).dense_data();
        for (int r = 0; r < d.rows(); ++r) d(r, r) += result.shift;
      }
      resil::note(resil::ResilienceEvent::kShiftRestart,
                  "shift " + std::to_string(result.shift) + " after " +
                      e.what());
      g = build_cholesky_graph(a, opt, &result.stats);
      result.model_flops = result.stats.model_flops;
    }
  }
  result.factor_seconds = result.exec.seconds;
  result.measured_flops = flop_region.flops();
  if (result.exec.run >= 0)
    result.critical_path =
        obs::critical_path(g, obs::run_spans(result.exec.run));
  result.recovery = resil::diff(recovery_before, resil::snapshot());
  return result;
}

SimCholeskyResult simulate_cholesky(const RankMap& ranks,
                                    const VirtualClusterConfig& cfg) {
  const auto [p, q] = rt::square_grid(cfg.nodes);
  std::unique_ptr<rt::Distribution> dist;
  if (cfg.band_distribution) {
    const int width =
        cfg.band_dist_width > 0 ? cfg.band_dist_width : ranks.band_size();
    dist = std::make_unique<rt::BandDistribution>(p, q, width);
  } else {
    dist = std::make_unique<rt::TwoDBlockCyclic>(p, q);
  }
  const CostModel cost(cfg.rates);

  GraphOptions opt;
  opt.recursive_all = cfg.recursive_all;
  opt.recursive_potrf = cfg.recursive_potrf;
  opt.recursive_block = cfg.recursive_block;
  opt.dist = dist.get();
  opt.cost = &cost;

  SimCholeskyResult result;
  rt::TaskGraph g =
      cfg.no_tlr_gemm
          ? build_cholesky_graph_no_tlr_gemm(ranks, opt, &result.stats)
          : build_cholesky_graph(ranks, opt, &result.stats);
  result.edges = g.classify_edges();
  if (cfg.accel_all_kernels) {
    for (rt::TaskId t = 0; t < g.size(); ++t) g.info(t).device_class = 1;
  }

  rt::SimConfig sim;
  sim.nproc = cfg.nodes;
  sim.cores_per_proc = cfg.cores_per_node;
  sim.comm = cfg.comm;
  sim.accel_per_proc = cfg.accel_per_node;
  sim.accel_speedup = cfg.accel_speedup;
  sim.work_stealing = cfg.work_stealing;
  result.sim = rt::simulate(g, sim);
  return result;
}

}  // namespace ptlr::core
