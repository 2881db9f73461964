#include "support/scoped_env.hpp"

#include <cstdlib>
#include <utility>

namespace ptlr::testing {

ScopedEnv::ScopedEnv(std::string name, const char* value)
    : name_(std::move(name)) {
  if (const char* old = std::getenv(name_.c_str())) old_ = old;
  if (value == nullptr)
    ::unsetenv(name_.c_str());
  else
    ::setenv(name_.c_str(), value, 1);
}

ScopedEnv::~ScopedEnv() {
  if (old_)
    ::setenv(name_.c_str(), old_->c_str(), 1);
  else
    ::unsetenv(name_.c_str());
}

}  // namespace ptlr::testing
