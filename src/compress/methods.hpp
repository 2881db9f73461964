// Name of the one compression engine, compress() (compress/compress.hpp).
//
// Header-only, and kept only because bench/ptlr_bench stamps
// to_string(CompressPolicy::from_env().method) into its run manifest. It
// goes at the next change to the benchmark; nothing else may include it.
#pragma once

namespace ptlr::compress {

enum class Method { kCpqr };

inline const char* to_string(Method) { return "CPQR"; }

struct CompressPolicy {
  Method method = Method::kCpqr;
  /// The default; no environment variable selects another engine.
  static CompressPolicy from_env() { return {}; }
};

}  // namespace ptlr::compress
