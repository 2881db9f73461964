#include "runtime/perturb.hpp"

#include <chrono>
#include <thread>

#include "common/knobs.hpp"
#include "common/rng.hpp"

namespace ptlr::rt {

PerturbConfig PerturbConfig::from_env() {
  const auto seed = knobs::integer("PTLR_PERTURB_SEED");
  return seed ? with_seed(*seed) : PerturbConfig{};
}

std::uint64_t Perturber::next() {
  // splitmix64 over a shared atomic counter: lock-free, deterministic
  // stream per seed.
  return splitmix64(
      state_.fetch_add(kSplitmixGamma, std::memory_order_relaxed));
}

bool Perturber::decide(double p) {
  if (!cfg_.enabled || p <= 0.0) return false;
  return uniform() < p;
}

double Perturber::uniform() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Perturber::below(std::uint64_t n) {
  return n <= 1 ? 0 : next() % n;
}

void Perturber::maybe_stall() {
  if (!decide(cfg_.stall_probability)) return;
  const auto us = below(static_cast<std::uint64_t>(cfg_.max_stall_us) + 1);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

void Perturber::maybe_delay_delivery() {
  if (!decide(cfg_.delivery_delay_probability)) return;
  const auto us =
      below(static_cast<std::uint64_t>(cfg_.max_delivery_delay_us) + 1);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace ptlr::rt
