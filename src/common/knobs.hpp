// The PTLR_* environment knobs: one row per variable in knobs.cpp (name,
// kind, range, default), read only through the lookups below, each of
// which reads the environment afresh. Unset and empty both mean the
// default. Numbers go through common/parse.hpp, so bad text is a
// ptlr::Error naming the variable.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace ptlr::knobs {

enum class Kind { kInteger, kFlag, kText };

struct Knob {
  std::string_view name;
  Kind kind = Kind::kText;
  std::string_view fallback = "";  ///< the default; "" = none
  std::uint64_t min = 0, max = 0;  ///< kInteger range
};

/// Every row, and the row named `name`: a name that is not in the table is
/// a mistake in the calling code, so knob() throws std::logic_error.
std::span<const Knob> table();
const Knob& knob(std::string_view name);

/// The value, or nullopt when unset with no default. Every integer range
/// fits in int except PTLR_PERTURB_SEED's.
std::optional<std::uint64_t> integer(std::string_view name);

/// "1" is on; unset, empty or "0" is off; any other text throws.
bool flag(std::string_view name);

/// The text as it is, or the default ("" when there is none).
std::string text(std::string_view name);

}  // namespace ptlr::knobs
