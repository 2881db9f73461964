// Maximum Likelihood Estimation for geospatial statistics (Eq. 1):
//   ℓ(θ) = -n/2·log 2π - 1/2·log|Σ(θ)| - 1/2·Zᵀ Σ(θ)⁻¹ Z,
// evaluated through the BAND-DENSE-TLR Cholesky of Σ(θ). This is the
// application driver of the paper: each optimization iteration assembles
// the covariance from the Matérn kernel, factors it, and evaluates ℓ.
#pragma once

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
  double rel_tol = 0.05;     ///< bracket-width stopping criterion
  int max_evals = 24;
  std::uint64_t geometry_seed = 42;
  double nugget = 1e-2;
  int tile_size = 128;
  CholeskyConfig cholesky;
};

/// Result of the θ₂ search.
struct MleFit {
  double theta2 = 0.0;           ///< arg max of the profile likelihood
  double log_likelihood = 0.0;
  int evaluations = 0;           ///< objective evaluations spent
  std::vector<std::pair<double, double>> path;  ///< (θ₂, ℓ) visited
};

/// Golden-section maximization of ℓ(θ₂) for measurements `z` observed at
/// the geometry implied by (n = z.size(), geometry_seed). Each objective
/// evaluation is a full compress + BAND-DENSE-TLR Cholesky + solve.
MleFit fit_theta2(const std::vector<double>& z,
                  const MleOptimizerConfig& cfg);

}  // namespace ptlr::core
