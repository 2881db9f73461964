#include "stars/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "stars/besselk.hpp"

namespace ptlr::stars {

namespace {

// e^x for x <= 0 in plain IEEE double arithmetic: no libm call and no
// data-dependent branch, so a loop over it vectorizes and each lane gives
// the bits of a scalar call on every ISA (this source builds with
// -ffp-contract=off). Cody–Waite reduction x = k·ln2 + r, |r| <= ln2/2,
// with ln2 split so that k·kLn2Hi is exact; e^r = (1 + r) + tail, where
// the tail carries the rounding errors of 1 + r and of the reduction next
// to the Taylor terms r²·(1/2! + r/3! + ... + r^11/13!) (truncation below
// 0.05 ULP); 2^k is applied through the exponent bits in two halves, so a
// subnormal result rounds once. x is clamped at -746: every x below
// ln(2^-1075) ≈ -745.1332 gives 0. NaN propagates.
[[gnu::always_inline]] inline double exp_nonpositive(double x) {
  constexpr double kLog2e = 0x1.71547652b82fep0;
  constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kShift = 0x1.8p52;  // adding it rounds to an integer
  constexpr double kInvFact[] = {
      1.0 / 6227020800, 1.0 / 479001600, 1.0 / 39916800, 1.0 / 3628800,
      1.0 / 362880,     1.0 / 40320,     1.0 / 5040,     1.0 / 720,
      1.0 / 120,        1.0 / 24,        1.0 / 6,        1.0 / 2};
  x = std::max(x, -746.0);
  const double t = x * kLog2e + kShift;
  const double k = t - kShift;
  const double hi = x - k * kLn2Hi;  // exact
  const double lo = k * kLn2Lo;
  const double r = hi - lo;
  double q = kInvFact[0];
#pragma GCC unroll 16  // a straight line, so a loop over exp vectorizes
  for (int i = 1; i < 12; ++i) q = q * r + kInvFact[i];
  const double s = 1.0 + r;
  const double p = s + (((1.0 - s) + r + ((hi - r) - lo)) + r * r * q);
  // 2^k = 2^k1·2^k2 with k1 = round(k/2), built in the exponent bits (no
  // 64-bit arithmetic shift, so SSE2 vectorizes it too).
  const double t1 = k * 0.5 + kShift;
  const auto bits = [](double v) { return std::bit_cast<std::int64_t>(v); };
  const auto pow2 = [](std::int64_t e) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52);
  };
  return p * pow2(bits(t1) - bits(kShift)) * pow2(bits(t) - bits(t1));
}

// The element arithmetic of the closed forms, shared by operator() and
// eval() so that a value does not depend on the batch it is computed in.
template <int kTwoNu>
[[gnu::always_inline]] inline double matern_closed(double theta1,
                                                   double theta2, double r) {
  const double s = r / theta2;
  const double e = exp_nonpositive(-s);
  if constexpr (kTwoNu == 1) return theta1 * e;
  // e is exactly 0 for every s above 745.14, so clamping s inside the
  // polynomial changes no value; it keeps the polynomial finite where it
  // would overflow (inf * 0 is NaN). A NaN s stays NaN.
  const double p = std::min(s, 746.0);
  if constexpr (kTwoNu == 3) return theta1 * (1.0 + p) * e;
  return theta1 * (1.0 + p + p * p / 3.0) * e;
}

[[gnu::always_inline]] inline double exponential(double sigma2, double ell,
                                                 double r) {
  return sigma2 * exp_nonpositive(-r / ell);
}

[[gnu::always_inline]] inline double squared_exponential(
    double sigma2, double ell, double r) {
  return sigma2 * exp_nonpositive(-r * r / (2.0 * ell * ell));
}

template <class F>
void each(const double* r, double* out, int n, F f) {
  for (int i = 0; i < n; ++i) out[i] = f(r[i]);
}

}  // namespace

void CovarianceKernel::eval(const double* r, double* out, int n) const {
  for (int i = 0; i < n; ++i) out[i] = (*this)(r[i]);
}

Matern::Matern(double theta1, double theta2, double theta3)
    : theta1_(theta1), theta2_(theta2), theta3_(theta3),
      norm_(theta1 / (std::pow(2.0, theta3 - 1.0) * std::tgamma(theta3))) {
  PTLR_CHECK(theta1 > 0 && theta2 > 0 && theta3 > 0,
             "Matern parameters must be positive");
}

double Matern::operator()(double r) const {
  // Closed forms for the common half-integer smoothness values.
  if (theta3_ == 0.5) return matern_closed<1>(theta1_, theta2_, r);
  if (theta3_ == 1.5) return matern_closed<3>(theta1_, theta2_, r);
  if (theta3_ == 2.5) return matern_closed<5>(theta1_, theta2_, r);
  if (r <= 0.0) return theta1_;
  const double s = r / theta2_;
  // For large s the product (s^nu K_nu) underflows gracefully; use the
  // scaled Bessel function to keep intermediate values representable.
  const double k = bessel_k_scaled(theta3_, s);
  return norm_ * std::pow(s, theta3_) * k * std::exp(-s);
}

void Matern::eval(const double* r, double* out, int n) const {
  const double t1 = theta1_, t2 = theta2_;
  if (theta3_ == 0.5) {
    each(r, out, n, [=](double x) { return matern_closed<1>(t1, t2, x); });
  } else if (theta3_ == 1.5) {
    each(r, out, n, [=](double x) { return matern_closed<3>(t1, t2, x); });
  } else if (theta3_ == 2.5) {
    each(r, out, n, [=](double x) { return matern_closed<5>(t1, t2, x); });
  } else {
    CovarianceKernel::eval(r, out, n);
  }
}

double Exponential::operator()(double r) const {
  return exponential(sigma2_, ell_, r);
}

void Exponential::eval(const double* r, double* out, int n) const {
  const double s2 = sigma2_, l = ell_;
  each(r, out, n, [=](double x) { return exponential(s2, l, x); });
}

double SquaredExponential::operator()(double r) const {
  return squared_exponential(sigma2_, ell_, r);
}

void SquaredExponential::eval(const double* r, double* out, int n) const {
  const double s2 = sigma2_, l = ell_;
  each(r, out, n, [=](double x) { return squared_exponential(s2, l, x); });
}

double Electrostatics::operator()(double r) const {
  return r <= 0.0 ? diag_ : 1.0 / r;
}

double Electrodynamics::operator()(double r) const {
  return r <= 0.0 ? w_ : std::sin(w_ * r) / r;
}

}  // namespace ptlr::stars
