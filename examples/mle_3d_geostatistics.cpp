// MLE for a 3D geostatistics application (the paper's driving workload).
//
// Synthesizes measurements Z ~ N(0, Sigma(theta_true)) for a 3D Matérn
// field, then evaluates the MLE objective (Eq. 1) over a grid of candidate
// correlation lengths theta_2 through the BAND-DENSE-TLR Cholesky. The
// log-likelihood must peak at (or next to) the true parameter — exactly
// what the iterative MLE optimization of climate/weather applications does
// at each step, here made laptop-sized.
//
//   $ ./mle_3d_geostatistics [n] [tile_size]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/mle.hpp"
#include "dense/lapack.hpp"

int main(int argc, char** argv) {
  using namespace ptlr;
  const int n = argc > 1 ? std::atoi(argv[1]) : 1024;
  const int b = argc > 2 ? std::atoi(argv[2]) : 128;
  const double theta1 = 1.0, theta2_true = 0.12, theta3 = 0.5;

  std::printf("3D Matérn MLE: N = %d, b = %d, true theta = "
              "(%.2f, %.2f, %.2f)\n\n", n, b, theta1, theta2_true, theta3);

  // Simulate Z = L w with w ~ N(0, I) through a dense Cholesky of the true
  // covariance (exact simulation; done once, dense is fine at this size).
  auto truth = stars::make_st3d_matern(n, theta1, theta2_true, theta3,
                                       /*seed=*/42, /*nugget=*/1e-2);
  dense::Matrix l = truth.block(0, 0, n, n);
  dense::potrf(dense::Uplo::Lower, l.view());
  Rng rng(7);
  std::vector<double> w(static_cast<std::size_t>(n)), z(w.size());
  for (auto& v : w) v = rng.gaussian();
  for (int i = 0; i < n; ++i) {
    double s = 0.0;
    for (int j = 0; j <= i; ++j) s += l(i, j) * w[static_cast<std::size_t>(j)];
    z[static_cast<std::size_t>(i)] = s;
  }

  // Evaluate the objective across candidate correlation lengths. Each
  // evaluation = generate Sigma(theta) -> compress -> BAND-DENSE-TLR
  // Cholesky -> log det + quadratic form, all through the TLR pipeline.
  core::CholeskyConfig cfg;
  cfg.acc = {1e-6, 1 << 30};
  cfg.band_size = 0;  // auto-tuned per candidate
  cfg.nthreads = 2;

  std::printf("%10s %18s %12s %12s %10s %6s\n", "theta_2", "log-likelihood",
              "log det", "quadratic", "factor(s)", "band");
  double best_ll = -1e300, best_theta = 0.0;
  for (double theta2 : {0.04, 0.08, 0.12, 0.16, 0.24, 0.40}) {
    // Same seed: the candidate model differs only in the kernel parameter.
    auto cand = stars::make_st3d_matern(n, theta1, theta2, theta3, 42, 1e-2);
    auto eval = core::evaluate_mle(cand, z, b, cfg);
    std::printf("%10.2f %18.2f %12.2f %12.2f %10.3f %6d\n", theta2,
                eval.log_likelihood, eval.logdet, eval.quadratic,
                eval.cholesky.factor_seconds, eval.cholesky.band_size);
    if (eval.log_likelihood > best_ll) {
      best_ll = eval.log_likelihood;
      best_theta = theta2;
    }
  }
  std::printf("\ngrid scan picks theta_2 = %.2f (true: %.2f)\n", best_theta,
              theta2_true);

  // Refine θ₂ by Brent's method (the iterative MLE procedure of
  // Section III-A): each evaluation is a full TLR pipeline pass.
  core::MleOptimizerConfig opt;
  opt.tile_size = b;
  opt.cholesky = cfg;
  opt.lo = best_theta / 2;
  opt.hi = best_theta * 2;
  opt.max_evals = 10;
  auto fit = core::fit_theta2(z, opt);
  std::printf("Brent refinement: theta_2 = %.3f "
              "(ll = %.2f, %d evaluations)\n",
              fit.theta2, fit.log_likelihood, fit.evaluations);
  return 0;
}
