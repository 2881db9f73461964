// Minimal command-line flag parsing shared by the PTLR tools:
// --name value pairs with typed accessors and defaults. Each tool names
// the flags it reads, so a misspelt flag or a malformed number (see
// common/parse.hpp) throws ptlr::Error instead of running on a default.
#pragma once

#include <initializer_list>
#include <map>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace ptlr::tools {

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
    return it == values_.end() ? def
                               : parse_number<int>("--" + key, it->second);
  }
  [[nodiscard]] double real(const std::string& key, double def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def
                               : parse_number<double>("--" + key, it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace ptlr::tools
