#include "resilience/fault.hpp"

#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/knobs.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"

namespace ptlr::resil {

namespace {

// splitmix64 as a stateless hash, so every site draws an independent,
// schedule-invariant value.
std::uint64_t hash3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return splitmix64(splitmix64(splitmix64(a) ^ b) ^ c);
}

}  // namespace

FaultConfig FaultConfig::parse(const char* spec) {
  FaultConfig cfg;
  if (spec == nullptr || spec[0] == '\0') return cfg;
  const std::string s(spec);
  // No '=': a bare seed with the default probabilities.
  if (s.find('=') == std::string::npos)
    return with_seed(parse_number<std::uint64_t>("PTLR_FAULTS seed", s));

  cfg.enabled = true;
  const std::pair<const char*, double*> probabilities[] = {
      {"task", &cfg.task_exception_probability},
      {"alloc", &cfg.alloc_failure_probability},
      {"poison", &cfg.poison_probability},
      {"drop", &cfg.message_drop_probability},
      {"dup", &cfg.message_duplicate_probability},
      {"kill", &cfg.rank_kill_probability}};
  std::istringstream items(s);
  for (std::string item; std::getline(items, item, ',');) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    PTLR_CHECK(eq != std::string::npos,
               "PTLR_FAULTS: expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string_view value = std::string_view(item).substr(eq + 1);
    if (key == "seed") {
      cfg.seed = parse_number<std::uint64_t>("PTLR_FAULTS seed", value);
      continue;
    }
    double* p = nullptr;
    for (const auto& [k, field] : probabilities)
      if (key == k) p = field;
    if (p == nullptr) throw Error("PTLR_FAULTS: unknown key '" + key + "'");
    *p = parse_number("PTLR_FAULTS " + key, value, 0.0, 1.0);
  }
  return cfg;
}

FaultConfig FaultConfig::from_env() {
  return parse(knobs::text("PTLR_FAULTS").c_str());
}

double FaultInjector::roll(std::uint64_t site, std::uint64_t salt) const {
  const std::uint64_t h = hash3(cfg_.seed, site, salt);
  // Top 53 bits → uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Salts separate the fault classes so one site's draws are independent.
namespace {
constexpr std::uint64_t kSaltTask = 0x7461736Bull;    // "task"
constexpr std::uint64_t kSaltAlloc = 0x616C6C6Full;   // "allo"
constexpr std::uint64_t kSaltPoison = 0x706F6973ull;  // "pois"
constexpr std::uint64_t kSaltWhere = 0x77686572ull;   // "wher"
constexpr std::uint64_t kSaltDrop = 0x64726F70ull;    // "drop"
constexpr std::uint64_t kSaltDup = 0x64757021ull;     // "dup!"
constexpr std::uint64_t kSaltKill = 0x6B696C6Cull;    // "kill"
constexpr std::uint64_t kSaltVictim = 0x76696374ull;  // "vict"
constexpr std::uint64_t kSaltStep = 0x73746570ull;    // "step"
}  // namespace

bool FaultInjector::task_exception(std::uint64_t task, int attempt) const {
  if (!cfg_.enabled || attempt != 0) return false;
  return roll(task, kSaltTask) < cfg_.task_exception_probability;
}

bool FaultInjector::alloc_failure(std::uint64_t task, int attempt) const {
  if (!cfg_.enabled || attempt != 0) return false;
  return roll(task, kSaltAlloc) < cfg_.alloc_failure_probability;
}

std::optional<std::uint64_t> FaultInjector::poison(std::uint64_t task,
                                                   int attempt) const {
  if (!cfg_.enabled || attempt != 0) return std::nullopt;
  if (roll(task, kSaltPoison) >= cfg_.poison_probability) return std::nullopt;
  return hash3(cfg_.seed, task, kSaltWhere);
}

bool FaultInjector::drop_message(std::uint64_t tag, int from, int to) const {
  if (!cfg_.enabled) return false;
  const std::uint64_t site =
      splitmix64(tag) ^
      (static_cast<std::uint64_t>(from) << 32 |
       static_cast<std::uint64_t>(static_cast<unsigned>(to)));
  return roll(site, kSaltDrop) < cfg_.message_drop_probability;
}

std::optional<FaultInjector::RankKillPlan> FaultInjector::rank_kill(
    int nranks, int nsteps) const {
  if (!cfg_.enabled || nranks <= 0 || nsteps <= 0) return std::nullopt;
  if (roll(0, kSaltKill) >= cfg_.rank_kill_probability) return std::nullopt;
  RankKillPlan plan;
  plan.victim = static_cast<int>(hash3(cfg_.seed, 0, kSaltVictim) %
                                 static_cast<std::uint64_t>(nranks));
  plan.step = static_cast<int>(hash3(cfg_.seed, 0, kSaltStep) %
                               static_cast<std::uint64_t>(nsteps));
  return plan;
}

bool FaultInjector::duplicate_message(std::uint64_t tag, int from,
                                      int to) const {
  if (!cfg_.enabled) return false;
  const std::uint64_t site =
      splitmix64(tag) ^
      (static_cast<std::uint64_t>(from) << 32 |
       static_cast<std::uint64_t>(static_cast<unsigned>(to)));
  return roll(site, kSaltDup) < cfg_.message_duplicate_probability;
}

}  // namespace ptlr::resil
