#include "common/knobs.hpp"

#include <climits>
#include <cstdlib>
#include <stdexcept>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace ptlr::knobs {

namespace {

using enum Kind;

// One day: now() + timeout + rejoin window stays far from overflow.
constexpr std::uint64_t kMaxMs = 24ull * 3600 * 1000;

// name, kind, default, integer range.
constexpr Knob kTable[] = {
    {"PTLR_NET", kText},  // uds:<dir> | tcp:<host>:<port 1..65535>
    {"PTLR_RANK", kInteger, "", 0, INT_MAX},  // below PTLR_NRANKS
    {"PTLR_NRANKS", kInteger, "", 1, INT_MAX},
    {"PTLR_EPOCH", kInteger, "0", 0, 255},
    {"PTLR_NET_TIMEOUT_MS", kInteger, "15000", 1, kMaxMs},
    {"PTLR_NET_REJOIN_MS", kInteger, "0", 0, kMaxMs},
    {"PTLR_PERTURB_SEED", kInteger, "", 0, UINT64_MAX},  // unset: off
    {"PTLR_FAULTS", kText},  // <s> | seed=<s>,task=<p>,...: p in 0..1
    {"PTLR_WATCHDOG_MS", kInteger, "0", 0, kMaxMs},
    {"PTLR_CKPT", kText},  // off | every:<1..1000000>
    {"PTLR_CKPT_DIR", kText, "."},
    {"PTLR_TRACE", kFlag, "0"},
    {"PTLR_TRACE_FILE", kText, "ptlr_trace.json"},
};

// The variable's text, or the row's default when it is unset or empty.
std::string_view value(const Knob& k) {
  const char* v = std::getenv(std::string(k.name).c_str());
  return v != nullptr && v[0] != '\0' ? std::string_view(v) : k.fallback;
}

}  // namespace

std::span<const Knob> table() { return kTable; }

const Knob& knob(std::string_view name) {
  for (const Knob& k : kTable)
    if (k.name == name) return k;
  throw std::logic_error("no PTLR knob named " + std::string(name));
}

std::optional<std::uint64_t> integer(std::string_view name) {
  const Knob& k = knob(name);
  const std::string_view v = value(k);
  if (v.empty()) return std::nullopt;
  return parse_number(k.name, v, k.min, k.max);
}

bool flag(std::string_view name) {
  const std::string_view v = value(knob(name));
  if (v != "0" && v != "1")
    throw Error(std::string(name) + ": expected 0 or 1, got '" +
                std::string(v) + "'");
  return v == "1";
}

std::string text(std::string_view name) {
  return std::string(value(knob(name)));
}

}  // namespace ptlr::knobs
