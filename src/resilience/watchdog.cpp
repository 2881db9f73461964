#include "resilience/watchdog.hpp"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace ptlr::resil {

WatchdogConfig WatchdogConfig::from_env() {
  WatchdogConfig cfg;
  const char* v = std::getenv("PTLR_WATCHDOG_MS");
  if (v == nullptr || v[0] == '\0') return cfg;
  char* end = nullptr;
  errno = 0;
  const long long ms = std::strtoll(v, &end, 10);
  PTLR_CHECK(*v >= '0' && *v <= '9' && *end == '\0' && errno != ERANGE,
             "PTLR_WATCHDOG_MS: expected a non-negative integer, got '" +
                 std::string(v) + "'");
  cfg.deadline_ms = ms;
  return cfg;
}

}  // namespace ptlr::resil
