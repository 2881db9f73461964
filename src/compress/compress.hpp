// ε-truncated low-rank compression and recompression.
//
// compress(): dense tile → U·Vᵀ at an accuracy threshold, the STARS-H
// compression step of Section III-B. Implemented as truncated column-
// pivoted QR to tol/2 (cheap rank discovery) followed by an SVD polish of
// the small triangular factor within the budget the QR tail left, so the
// returned rank is the minimal rank meeting the threshold in the
// Frobenius norm. It is PTLR's one compression engine: the initial
// compression, the LR GEMM's one compression of an updated tile, and
// every driver call it directly, so results are deterministic.
//
// recompress(): rounds a (possibly rank-inflated) U·Vᵀ back to minimal rank:
// thin QRs of both factors, then the small core is rounded by compress()
// itself (CPQR to tol/2, SVD of the kept columns only) — the
// "recompression" stage that dominates TLR GEMM at high rank (Section IV,
// Fig. 2a). The Cholesky's LR GEMM no longer calls it: it sums a tile's
// updates densely and compresses once (hcore::gemm).
#pragma once

#include <optional>

#include "compress/lowrank.hpp"

namespace ptlr::compress {

/// Accuracy policy for compression/recompression.
struct Accuracy {
  /// Frobenius-norm truncation threshold (absolute, as in the paper's
  /// fixed accuracy thresholds 1e-8 … 1e-3).
  double tol = 1e-8;
  /// Cap on the admissible rank; compression fails above it. The paper sets
  /// maxrank = b/2 to keep TLR competitive with dense (Section III-B).
  int maxrank = 1 << 30;
  /// Adaptive on-demand densification (the paper's Section IX future
  /// work): when > 0, a low-rank tile whose rank grows beyond
  /// densify_ratio · min(rows, cols) during the factorization is rolled
  /// back to dense on the spot. 0 disables the policy.
  double densify_ratio = 0.0;
};

/// Compress a dense block to U·Vᵀ with ‖A − U·Vᵀ‖_F ≤ tol.
/// Returns std::nullopt if that would need more than `maxrank` columns —
/// the caller then keeps the tile dense (BAND-DENSE-TLR densification).
std::optional<LowRankFactor> compress(dense::ConstMatrixView a,
                                      const Accuracy& acc);

/// Numerical rank of a block at threshold `acc`: the rank compress()
/// returns with the rank cap lifted. It runs compress(), so it builds U and
/// V and discards them; the cost is that of one compression.
int numerical_rank(dense::ConstMatrixView a, const Accuracy& acc);

/// Round an existing factor down to minimal rank at `acc`, within the error
/// bound compress() meets. Returns the new rank; a result with no rank
/// reduction keeps the existing factor. acc.maxrank is not enforced. Cost:
/// O(b·k²) QRs plus a CPQR of the k×k core and an SVD of its kept columns.
int recompress(LowRankFactor& f, const Accuracy& acc);

/// ‖A − U·Vᵀ‖_F, for accuracy validation in tests.
double approximation_error(dense::ConstMatrixView a, const LowRankFactor& f);

/// Smallest k such that dropping singular values s[k:] keeps the Frobenius
/// tail at or below `tol` (s must be descending) — the paper's
/// accuracy-threshold truncation rule.
int truncation_rank(const std::vector<double>& s, double tol);

}  // namespace ptlr::compress
