// RAII override of one environment variable for a test: sets it (or, given
// nullptr, unsets it) and restores the previous state on destruction.
#pragma once

#include <optional>
#include <string>

namespace ptlr::testing {

class ScopedEnv {
 public:
  ScopedEnv(std::string name, const char* value);
  ~ScopedEnv();
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

}  // namespace ptlr::testing
