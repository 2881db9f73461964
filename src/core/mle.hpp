// Maximum Likelihood Estimation for geospatial statistics (Eq. 1):
//   ℓ(θ) = -n/2·log 2π - 1/2·log|Σ(θ)| - 1/2·Zᵀ Σ(θ)⁻¹ Z,
// evaluated through the BAND-DENSE-TLR Cholesky of Σ(θ). This is the
// application driver of the paper: each optimization iteration assembles
// the covariance from the Matérn kernel, factors it, and evaluates ℓ.
#pragma once

#include <functional>

#include "core/cholesky.hpp"
#include "core/solve.hpp"
#include "stars/problem.hpp"

namespace ptlr::core {

/// One MLE objective evaluation.
struct MleEvaluation {
  double log_likelihood = 0.0;
  double logdet = 0.0;      ///< log |Σ|
  double quadratic = 0.0;   ///< Zᵀ Σ⁻¹ Z
  /// Building Σ(θ): generation, compression, the band pick and the dense
  /// band, all before factorize (which then neither tunes nor regenerates).
  double compress_seconds = 0.0;
  /// The band, and the F(W) the outside-in scan priced for it (no F(W)
  /// when cfg.band_size forced the band).
  BandScan band;
  CholeskyResult cholesky;
};

/// ℓ(θ) from an already factored covariance (Cholesky factor in `chol`).
double log_likelihood(const tlr::TlrMatrix& chol,
                      const std::vector<double>& z);

/// Full pipeline: build Σ(θ) at `tile_size` on cfg.nthreads workers,
/// factorize with `cfg` at the band of the build, evaluate ℓ(θ) for the
/// measurement vector `z`.
/// With cfg.band_size 0 the band is picked while compressing
/// (build_auto_band); a forced band is generated dense. No band tile is
/// compressed either way. The result is bitwise independent of
/// cfg.nthreads, and bitwise that of compressing every tile and letting
/// factorize tune and regenerate the band.
MleEvaluation evaluate_mle(const stars::CovarianceProblem& prob,
                           const std::vector<double>& z, int tile_size,
                           const CholeskyConfig& cfg);

/// The "MLE-based iterative optimization procedure" of Section III-A,
/// reduced to the correlation length θ₂ (the parameter the paper's
/// applications estimate; θ₁ and θ₃ are held at their physical values).
struct MleOptimizerConfig {
  double theta1 = 1.0;
  double theta3 = 0.5;
  double lo = 0.02;          ///< search bracket for θ₂
  double hi = 0.64;
  double rel_tol = 0.05;     ///< final bracket width in log θ₂
  int max_evals = 24;        ///< objective evaluations at most
  std::uint64_t geometry_seed = 42;
  double nugget = 1e-2;
  int tile_size = 128;
  CholeskyConfig cholesky;
};

/// Result of the θ₂ search.
struct MleFit {
  double theta2 = 0.0;           ///< the best θ₂ evaluated
  double log_likelihood = 0.0;   ///< ℓ(theta2)
  int evaluations = 0;           ///< objective evaluations spent
  std::vector<std::pair<double, double>> path;  ///< (θ₂, ℓ) in call order
};

/// Maximizes `loglik` over θ₂ in [cfg.lo, cfg.hi] by Brent's method
/// (Brent 1973, ch. 5) on u = log θ₂, since the parameter spans decades.
/// Each step moves to the vertex of the parabola through the three best
/// points, or takes a golden-section step into the larger side of the
/// bracket when that vertex leaves the bracket or would move at least half
/// as far as the step before last; on a smooth objective the parabolic
/// steps converge superlinearly. It stops once the bracket around the best
/// point is no wider than cfg.rel_tol, or after cfg.max_evals calls; no
/// other field of `cfg` is read. The result is the best point evaluated:
/// its θ₂ is bitwise the value passed to `loglik`, and no ℓ on the path
/// exceeds its log_likelihood.
MleFit maximize_theta2(const std::function<double(double)>& loglik,
                       const MleOptimizerConfig& cfg);

/// maximize_theta2 of ℓ(θ₂) for measurements `z` observed at the geometry
/// implied by (n = z.size(), geometry_seed). Each objective evaluation is
/// a full evaluate_mle: build Σ(θ), BAND-DENSE-TLR Cholesky, solve.
MleFit fit_theta2(const std::vector<double>& z,
                  const MleOptimizerConfig& cfg);

}  // namespace ptlr::core
