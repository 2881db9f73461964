#include "core/mle.hpp"

#include <cmath>
#include <numbers>

#include "common/timer.hpp"

namespace ptlr::core {

double log_likelihood(const tlr::TlrMatrix& chol,
                      const std::vector<double>& z) {
  const double ld = log_det(chol);
  // Zᵀ Σ⁻¹ Z = ‖L⁻¹ Z‖²: one forward solve.
  const auto y = solve_lower(chol, z);
  double quad = 0.0;
  for (const double v : y) quad += v * v;
  const double n = static_cast<double>(chol.n());
  return -0.5 * (n * std::log(2.0 * std::numbers::pi) + ld + quad);
}

MleEvaluation evaluate_mle(const stars::CovarianceProblem& prob,
                           const std::vector<double>& z, int tile_size,
                           const CholeskyConfig& cfg) {
  PTLR_CHECK(static_cast<int>(z.size()) == prob.n(),
             "measurement vector dimension mismatch");
  MleEvaluation out;

  WallTimer t;
  auto sigma =
      cfg.band_size > 0
          ? tlr::TlrMatrix::from_problem_parallel(prob, tile_size, cfg.acc,
                                                  cfg.nthreads, cfg.band_size)
          : build_auto_band(prob, tile_size, cfg.acc, cfg.nthreads,
                            cfg.fluctuation_lo, &out.band);
  out.compress_seconds = t.seconds();
  out.band.band_size = sigma.band_size();

  // The band is dense already: factorize neither tunes nor regenerates.
  CholeskyConfig banded = cfg;
  banded.band_size = sigma.band_size();
  out.cholesky = factorize(sigma, &prob, banded);

  out.logdet = log_det(sigma);
  const auto y = solve_lower(sigma, z);
  for (const double v : y) out.quadratic += v * v;
  const double n = static_cast<double>(prob.n());
  out.log_likelihood =
      -0.5 * (n * std::log(2.0 * std::numbers::pi) + out.logdet +
              out.quadratic);
  return out;
}

MleFit fit_theta2(const std::vector<double>& z,
                  const MleOptimizerConfig& cfg) {
  PTLR_CHECK(cfg.lo > 0 && cfg.hi > cfg.lo, "invalid search bracket");
  const int n = static_cast<int>(z.size());
  MleFit fit;

  auto objective = [&](double theta2) {
    auto prob = stars::make_st3d_matern(n, cfg.theta1, theta2, cfg.theta3,
                                        cfg.geometry_seed, cfg.nugget);
    auto eval = evaluate_mle(prob, z, cfg.tile_size, cfg.cholesky);
    fit.evaluations++;
    fit.path.emplace_back(theta2, eval.log_likelihood);
    return eval.log_likelihood;
  };

  // Golden-section search on the (empirically unimodal) profile
  // likelihood; search in log(θ₂) since the parameter spans decades.
  constexpr double kInvPhi = 0.6180339887498949;
  double a = std::log(cfg.lo), b = std::log(cfg.hi);
  double c = b - kInvPhi * (b - a);
  double d = a + kInvPhi * (b - a);
  double fc = objective(std::exp(c));
  double fd = objective(std::exp(d));
  while (fit.evaluations < cfg.max_evals &&
         (b - a) > cfg.rel_tol) {
    if (fc > fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - kInvPhi * (b - a);
      fc = objective(std::exp(c));
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + kInvPhi * (b - a);
      fd = objective(std::exp(d));
    }
  }
  if (fc > fd) {
    fit.theta2 = std::exp(c);
    fit.log_likelihood = fc;
  } else {
    fit.theta2 = std::exp(d);
    fit.log_likelihood = fd;
  }
  return fit;
}

}  // namespace ptlr::core
