// Minimal command-line flag parsing shared by the PTLR tools:
// --name value pairs with typed accessors and defaults. Each tool names
// the flags it reads, so a misspelt flag or a malformed number throws
// ptlr::Error instead of silently running on a default.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <string>

#include "common/error.hpp"

namespace ptlr::tools {

/// `text` as a whole base-10 int; throws ptlr::Error naming `flag`
/// ("--n") and the text otherwise.
inline int parse_int(const std::string& flag, const std::string& text) {
  const char* s = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < INT_MIN ||
      v > INT_MAX)
    throw Error(flag + ": not an integer: " + text);
  return static_cast<int>(v);
}

/// `text` as a whole floating-point number; throws like parse_int.
inline double parse_real(const std::string& flag, const std::string& text) {
  const char* s = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE)
    throw Error(flag + ": not a number: " + text);
  return v;
}

class Args {
 public:
  /// `known` lists every flag (without "--") the tool reads.
  Args(int argc, char** argv, std::initializer_list<const char*> known) {
    const std::set<std::string> allowed(known.begin(), known.end());
    for (int i = 1; i < argc; ++i) {
      std::string key = argv[i];
      PTLR_CHECK(key.rfind("--", 0) == 0, "expected --flag, got: " + key);
      key = key.substr(2);
      if (allowed.count(key) == 0) throw Error("unknown flag --" + key);
      PTLR_CHECK(i + 1 < argc, "missing value for --" + key);
      values_[key] = argv[++i];
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  [[nodiscard]] int integer(const std::string& key, int def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : parse_int("--" + key, it->second);
  }
  [[nodiscard]] double real(const std::string& key, double def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : parse_real("--" + key, it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace ptlr::tools
