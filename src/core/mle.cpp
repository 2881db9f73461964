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

MleFit maximize_theta2(const std::function<double(double)>& loglik,
                       const MleOptimizerConfig& cfg) {
  PTLR_CHECK(cfg.lo > 0 && cfg.hi > cfg.lo, "invalid search bracket");
  PTLR_CHECK(cfg.rel_tol > 0 && cfg.max_evals >= 1,
             "invalid stopping rule");
  MleFit fit;
  // Brent's localmin on g(u) = -ℓ(e^u). x is the best point so far, w the
  // second best and v the previous w; e is the step before last.
  auto g = [&](double u) {
    const double theta2 = std::exp(u);
    const double ll = loglik(theta2);
    fit.evaluations++;
    fit.path.emplace_back(theta2, ll);
    return -ll;
  };
  constexpr double kGolden = 0.3819660112501051;  // (3 - √5) / 2
  const double tol1 = cfg.rel_tol / 4, tol2 = 2 * tol1;
  double a = std::log(cfg.lo), b = std::log(cfg.hi);
  double x = a + kGolden * (b - a), w = x, v = x;
  double gx = g(x), gw = gx, gv = gx;
  std::size_t best = 0;  // x's entry of fit.path
  double d = 0.0, e = 0.0;
  while (fit.evaluations < cfg.max_evals) {
    const double m = 0.5 * (a + b);
    // Every point of [a, b] lies within tol2 of x, so the bracket is no
    // wider than 2·tol2 = rel_tol.
    if (std::abs(x - m) <= tol2 - 0.5 * (b - a)) break;
    bool parabolic = false;
    if (std::abs(e) > tol1) {
      // The parabola through (v, w, x) has its vertex at x + p/q, q ≥ 0.
      double r = (x - w) * (gx - gv);
      double q = (x - v) * (gx - gw);
      double p = (x - v) * q - (x - w) * r;
      q = 2 * (q - r);
      if (q > 0) p = -p;
      q = std::abs(q);
      const double e_prev = e;
      e = d;
      // Take the vertex only inside (a, b) and only if it moves less than
      // half the step before last, which bounds the steps geometrically.
      if (std::abs(p) < std::abs(0.5 * q * e_prev) && p > q * (a - x) &&
          p < q * (b - x)) {
        d = p / q;
        const double u = x + d;
        if (u - a < tol2 || b - u < tol2) d = x < m ? tol1 : -tol1;
        parabolic = true;
      }
    }
    if (!parabolic) {
      e = (x < m ? b : a) - x;
      d = kGolden * e;
    }
    // Never closer to x than tol1: the values there say nothing new.
    const double u = x + (std::abs(d) >= tol1 ? d : (d >= 0 ? tol1 : -tol1));
    const double gu = g(u);
    if (gu <= gx) {
      (u < x ? b : a) = x;
      v = w;
      gv = gw;
      w = x;
      gw = gx;
      x = u;
      gx = gu;
      best = fit.path.size() - 1;
    } else {
      (u < x ? a : b) = u;
      if (gu <= gw || w == x) {
        v = w;
        gv = gw;
        w = u;
        gw = gu;
      } else if (gu <= gv || v == x || v == w) {
        v = u;
        gv = gu;
      }
    }
  }
  fit.theta2 = fit.path[best].first;
  fit.log_likelihood = fit.path[best].second;
  return fit;
}

MleFit fit_theta2(const std::vector<double>& z,
                  const MleOptimizerConfig& cfg) {
  const int n = static_cast<int>(z.size());
  return maximize_theta2(
      [&](double theta2) {
        const auto prob = stars::make_st3d_matern(
            n, cfg.theta1, theta2, cfg.theta3, cfg.geometry_seed, cfg.nugget);
        return evaluate_mle(prob, z, cfg.tile_size, cfg.cholesky)
            .log_likelihood;
      },
      cfg);
}

}  // namespace ptlr::core
