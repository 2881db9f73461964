// Scoped span recording for tests that read one run's obs spans.
#pragma once

#include "obs/trace.hpp"

namespace ptlr::testing {

/// Turns the obs recorder on, with an empty registry, for its lifetime;
/// on exit turns it off and drops what was recorded, so tests compose in
/// one process in any order.
class ObsScope {
 public:
  ObsScope() {
    obs::reset();
    obs::enable(true);
  }
  ~ObsScope() {
    obs::enable(false);
    obs::reset();
  }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;
};

}  // namespace ptlr::testing
