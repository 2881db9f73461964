// Adaptive randomized compression engine (Method::kAdaptiveRsvd).
//
// H2OPUS-TLR-style adaptive randomized approximation (Boukaram et al.,
// arXiv:2108.11932) specialized to TLR tiles: grow a Gaussian sketch in
// blocks and stop as soon as a stochastic estimate of the range residual
// meets the accuracy threshold, instead of committing to a sketch width up
// front (compress_rsvd) or paying the deterministic CPQR (compress()).
//
// The estimator is the classical a-posteriori sample bound: for Gaussian
// probes ω, E‖(I − QQᵀ)Aω‖² = ‖(I − QQᵀ)A‖_F², so the mean squared
// residual norm of the *next* sample block estimates the Frobenius error of
// the current basis before the block is absorbed. The estimate is charged
// at twice its value to absorb its sampling variance: convergence at
// 2e ≤ tol/2 leaves an SVD-polish budget of √(tol² − 4e²), so the final
// ‖A − UVᵀ‖_F stays within tol unless the true residual exceeds twice its
// estimate (≈ 3·10⁻⁴ for a rank-one residual and a 16-probe block).
//
// Two entry points share the range finder:
//   compress_adaptive_rsvd() — dense tile → U·Vᵀ (initial compression, and
//                              the hot-path rounding of a low-rank tile's
//                              accumulated updates),
//   recompress_adaptive()    — rounds an inflated U·Vᵀ without ever
//                              materializing it: A·ω = U(Vᵀω) costs
//                              O((m+n)k) per probe, for factors whose
//                              concatenated rank k is well above the true
//                              rank.
//
// Fallback contract (compress_with_policy / recompress_with_policy): when
// the estimate never converges before the rank cap, or the tile fails the
// policy's size/rank gates, the deterministic compress() / recompress()
// runs instead — the adaptive path may only ever cost extra probes, never
// accuracy bounds.
#pragma once

#include <functional>

#include "common/rng.hpp"
#include "compress/compress.hpp"

namespace ptlr::compress {

/// Allocator for sketch/temporary buffers. Hot-path callers hand in their
/// thread-local scratch arena so sketch memory is reused across kernel
/// invocations; an empty function heap-allocates (tests, tools).
using AllocFn = std::function<double*(std::size_t)>;

/// Outcome of one adaptive attempt, fed to the obs counters (sketch sizes,
/// fallback rate, estimator error).
struct AdaptiveStats {
  bool attempted = false;    ///< adaptive engine ran (policy gates passed)
  bool fell_back = false;    ///< estimate failed → deterministic fallback
  int sketch_cols = 0;       ///< Gaussian columns drawn (incl. probe block)
  int rank = -1;             ///< final rank (-1: not produced)
  double est_residual = 0.0; ///< last stochastic ‖(I−QQᵀ)A‖_F estimate
};

/// Adaptive randomized compression of a dense block. Returns std::nullopt
/// when the rank cap is exceeded (caller keeps the tile dense) — including
/// when the estimator failed to converge below the cap. The sketch block
/// width comes from acc.policy.block.
std::optional<LowRankFactor> compress_adaptive_rsvd(
    dense::ConstMatrixView a, const Accuracy& acc, Rng& rng,
    AdaptiveStats* stats = nullptr, const AllocFn& alloc = {});

/// Adaptive randomized recompression of an existing factor, in product
/// form. Returns the new rank, or -1 when the estimate failed to converge
/// before rank min(m, n, k) — the factor is left untouched and the caller
/// must fall back to the deterministic recompress(). Like recompress(), a
/// result with no rank reduction keeps the existing factor.
int recompress_adaptive(LowRankFactor& f, const Accuracy& acc, Rng& rng,
                        AdaptiveStats* stats = nullptr,
                        const AllocFn& alloc = {});

/// The hot-path compression dispatch for a dense block (the accumulated
/// sum of a low-rank tile's updates): runs the engine selected by
/// acc.policy, seeding the randomized path from acc.policy.seed. Blocks
/// with min(rows, cols) < acc.policy.min_dim skip the adaptive engine, and
/// an adaptive attempt that cannot certify the tolerance below the rank cap
/// falls back to compress(). Every other method runs compress(). Returns
/// std::nullopt when the rank exceeds acc.maxrank, as compress() does.
std::optional<LowRankFactor> compress_with_policy(
    dense::ConstMatrixView a, const Accuracy& acc,
    AdaptiveStats* stats = nullptr, const AllocFn& alloc = {});

/// The recompression dispatch: runs the engine selected by
/// acc.policy with the tile-class gates and the fallback contract above,
/// seeding the randomized path from acc.policy.seed. Deterministic
/// recompress() semantics otherwise. Always returns the final rank.
int recompress_with_policy(LowRankFactor& f, const Accuracy& acc,
                           AdaptiveStats* stats = nullptr,
                           const AllocFn& alloc = {});

}  // namespace ptlr::compress
