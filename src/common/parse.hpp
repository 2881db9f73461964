// The one number parser of the PTLR_* knobs and the tools' flags. The
// whole text must be a decimal number in [lo, hi]: no blanks, no hex, and
// a leading '+' or '-' only where the range admits negative values. Reals
// must be finite ("nan", "inf" and "1e999" are errors); exponents are
// fine, and std::to_chars output reads back bit for bit. Header-only,
// because ptlr-launch links no PTLR library.
#pragma once

#include <charconv>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/error.hpp"

namespace ptlr {

/// `text` as a T in [lo, hi], by default the whole range of T. Throws
/// ptlr::Error naming `name` ("PTLR_EPOCH", "--n") and quoting the text.
template <class T>
T parse_number(std::string_view name, std::string_view text,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  constexpr bool kReal = std::is_floating_point_v<T>;
  // from_chars reads a leading '-' itself, but not a '+'.
  const bool sign = lo < T{} && !text.empty() &&
                    (text[0] == '+' || text[0] == '-');
  const std::size_t first = sign ? 1 : 0;
  const char* end = text.data() + text.size();
  if (first < text.size() && ((text[first] >= '0' && text[first] <= '9') ||
                              (kReal && text[first] == '.'))) {
    T v{};
    const auto [ptr, ec] =
        std::from_chars(text.data() + (text[0] == '+' ? 1 : 0), end, v);
    if (ec == std::errc{} && ptr == end && v >= lo && v <= hi) return v;
  }
  const auto show = [](T x) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), x).ptr);
  };
  std::string expected = kReal ? "a finite number" : "an integer";
  if (lo != std::numeric_limits<T>::lowest() ||
      hi != std::numeric_limits<T>::max())
    expected += " in " + show(lo) + ".." + show(hi);
  throw Error(std::string(name) + ": expected " + expected + ", got '" +
              std::string(text) + "'");
}

}  // namespace ptlr
