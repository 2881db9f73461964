#include "runtime/perturb.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/error.hpp"

namespace ptlr::rt {

PerturbConfig PerturbConfig::from_env() {
  PerturbConfig c;
  const char* s = std::getenv("PTLR_PERTURB_SEED");
  if (s == nullptr || *s == '\0') return c;
  // strtoull alone would read "7x" as 7, "abc" as 0 and "-1" as 2^64 - 1.
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  PTLR_CHECK(*s >= '0' && *s <= '9' && *end == '\0' && errno != ERANGE,
             "PTLR_PERTURB_SEED: expected an unsigned integer, got '" +
                 std::string(s) + "'");
  c.enabled = true;
  c.seed = v;
  return c;
}

std::uint64_t Perturber::next() {
  // splitmix64 over a shared atomic counter: lock-free, deterministic
  // stream per seed.
  std::uint64_t z =
      state_.fetch_add(0x9E3779B97F4A7C15ull, std::memory_order_relaxed) +
      0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
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
