// Alternative low-rank approximation algorithms.
//
// STARS-H/HiCMA expose several compression backends with different
// cost/robustness tradeoffs; PTLR implements the three standard ones:
//
//   kCpqrSvd — truncated column-pivoted QR + SVD polish (the default of
//              compress(); deterministic, minimal rank, O(b²k) with a
//              safety margin),
//   kRsvd    — randomized SVD (Halko/Martinsson/Tropp): Gaussian sketch,
//              power iteration, small SVD; O(b²(k+p)) with tiny constants,
//              the method of choice for large tiles,
//   kAca     — adaptive cross approximation with partial pivoting: builds
//              the factors from selected rows/columns (rank-1 updates);
//              the classical H-matrix compressor. On an explicit block
//              (compress_aca) it keeps the residual in full, so its stop
//              test is the exact ‖A − UVᵀ‖_F and the result meets tol like
//              CPQR+SVD's; the entry-oracle form reads matrix *entries*
//              only and keeps the heuristic ‖u‖·‖v‖ stop. A recompression
//              pass restores minimal rank in both.
//
// A fourth, kAdaptiveRsvd, lives in compress/adaptive.hpp: H2OPUS-TLR-style
// incremental randomized range sampling with a stochastic error estimator
// and a deterministic CPQR+SVD fallback. compress_with dispatches to it
// like any other backend.
//
// Every backend validates its input: a tile containing NaN/Inf throws
// ptlr::Error instead of silently truncating garbage into a factor.
#pragma once

#include <functional>

#include "common/rng.hpp"
#include "compress/compress.hpp"

namespace ptlr::compress {

// Method enum lives in compress/compress.hpp (next to the hot-path policy).

/// Human-readable backend name.
const char* to_string(Method m);

/// Randomized SVD compression: sketch with `oversample` extra columns and
/// `power_iters` power iterations (defaults follow the literature).
/// Returns std::nullopt if the rank cap is exceeded.
std::optional<LowRankFactor> compress_rsvd(dense::ConstMatrixView a,
                                           const Accuracy& acc, Rng& rng,
                                           int oversample = 10,
                                           int power_iters = 1);

/// ACA with partial pivoting on an explicit matrix, followed by a
/// recompression pass to minimal rank, with ‖A − UVᵀ‖_F ≤ tol guaranteed:
/// the cross runs until the exact residual is at most tol/10, and the
/// rounding gets the rest of tol. A cross that does not get there within
/// 2·maxrank terms, or a rounded rank above maxrank, falls back to
/// compress(), which returns std::nullopt when the rank cap is exceeded.
std::optional<LowRankFactor> compress_aca(dense::ConstMatrixView a,
                                          const Accuracy& acc);

/// Entry-oracle ACA: compresses the block whose (i, j) entry is
/// `entry(i, j)` without ever materializing it — how hierarchical-matrix
/// libraries compress kernel matrices directly from the kernel. Its stop
/// test is the heuristic ‖u‖·‖v‖ ≤ tol, so unlike compress_aca the error
/// can exceed tol (by up to ~2× on st-3D-exp tiles).
std::optional<LowRankFactor> compress_aca_oracle(
    int rows, int cols, const std::function<double(int, int)>& entry,
    const Accuracy& acc);

/// Unified front-end: dispatch on `method`.
std::optional<LowRankFactor> compress_with(Method method,
                                           dense::ConstMatrixView a,
                                           const Accuracy& acc, Rng& rng);

}  // namespace ptlr::compress
