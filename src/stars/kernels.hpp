// Covariance kernel functions (Eq. 2 of the paper and friends).
#pragma once

#include <memory>

namespace ptlr::stars {

/// Interface for isotropic covariance kernels C(r).
class CovarianceKernel {
 public:
  virtual ~CovarianceKernel() = default;
  /// Covariance at distance r >= 0.
  [[nodiscard]] virtual double operator()(double r) const = 0;
  /// Batch entry of the tile generator: out[i] = (*this)(r[i]) for i < n,
  /// bitwise. The default is the scalar loop; the closed forms override
  /// it with a loop that vectorizes.
  virtual void eval(const double* r, double* out, int n) const;
  /// Variance C(0) (before any nugget).
  [[nodiscard]] virtual double variance() const = 0;
};

// The closed forms below (Matérn with θ3 ∈ {0.5, 1.5, 2.5}, Exponential,
// SquaredExponential) evaluate e^x with one branch-free routine in plain
// IEEE arithmetic (kernels.cpp; within 1 ULP, see docs/numerics.md), so
// their values do not depend on the libm or the ISA of the build. They are
// exactly θ1 (σ²) at r = 0, and exactly 0 once the exponent x falls below
// ln(2^-1075) ≈ -745.1332, where e^x underflows double precision, up to
// s = r/θ2 = inf (the Matérn prefactor 1 + s + s²/3 takes s clamped at 746,
// which changes no value and keeps it finite).

/// Matérn kernel (Eq. 2):
///   C(r; θ) = θ1 / (2^(θ3-1) Γ(θ3)) * (r/θ2)^θ3 * K_θ3(r/θ2)
/// with θ1 the variance, θ2 the correlation length and θ3 the smoothness.
/// Half-integer smoothness values use the closed forms; general θ3 uses
/// bessel_k.
class Matern final : public CovarianceKernel {
 public:
  Matern(double theta1, double theta2, double theta3);
  double operator()(double r) const override;
  void eval(const double* r, double* out, int n) const override;
  [[nodiscard]] double variance() const override { return theta1_; }

  [[nodiscard]] double theta1() const { return theta1_; }
  [[nodiscard]] double theta2() const { return theta2_; }
  [[nodiscard]] double theta3() const { return theta3_; }

 private:
  double theta1_, theta2_, theta3_;
  double norm_;  // θ1 / (2^(θ3-1) Γ(θ3)), precomputed
};

/// Exponential kernel C(r) = σ² exp(-r/ℓ): the Matérn limit θ3 = 1/2 that
/// the paper's st-3D-exp setting (θ = (1, 0.1, 0.5)) reduces to.
class Exponential final : public CovarianceKernel {
 public:
  Exponential(double sigma2, double length) : sigma2_(sigma2), ell_(length) {}
  double operator()(double r) const override;
  void eval(const double* r, double* out, int n) const override;
  [[nodiscard]] double variance() const override { return sigma2_; }

 private:
  double sigma2_, ell_;
};

/// Squared-exponential (Gaussian) kernel C(r) = σ² exp(-r²/(2ℓ²)): the
/// smooth-field comparator with much faster rank decay than st-3D-exp.
class SquaredExponential final : public CovarianceKernel {
 public:
  SquaredExponential(double sigma2, double length)
      : sigma2_(sigma2), ell_(length) {}
  double operator()(double r) const override;
  void eval(const double* r, double* out, int n) const override;
  [[nodiscard]] double variance() const override { return sigma2_; }

 private:
  double sigma2_, ell_;
};

/// Coulomb kernel K(r) = 1/r with a regularized diagonal — the STARS-H
/// electrostatics application. Conditionally positive definite; PTLR uses
/// it to exercise compression on non-covariance operators.
class Electrostatics final : public CovarianceKernel {
 public:
  explicit Electrostatics(double diag) : diag_(diag) {}
  double operator()(double r) const override;
  [[nodiscard]] double variance() const override { return diag_; }

 private:
  double diag_;  ///< value at r = 0 (the regularized self-interaction)
};

/// Oscillatory kernel K(r) = sin(w·r)/r (value w at r = 0) — the STARS-H
/// electrodynamics application; the hardest compression case because the
/// numerical rank grows with the wavenumber w.
class Electrodynamics final : public CovarianceKernel {
 public:
  explicit Electrodynamics(double wavenumber) : w_(wavenumber) {}
  double operator()(double r) const override;
  [[nodiscard]] double variance() const override { return w_; }

 private:
  double w_;
};

}  // namespace ptlr::stars
