// ε-truncated low-rank compression and recompression.
//
// compress(): dense tile → U·Vᵀ at an accuracy threshold, the STARS-H
// compression step of Section III-B. Implemented as a column-pivoted QR
// truncated once the Frobenius norm of its unfactored tail reaches tol:
// the rank is the CPQR rank at tol, U = Q has orthonormal columns and
// V = Aᵀ·U, so U·Vᵀ is the orthogonal projection of A onto span(U) and the
// error is that tail. The rank is not minimal (an SVD truncation
// at tol would keep a few percent fewer columns); the paper fixes each
// tile's accuracy, not its rank. It is PTLR's one compression engine: the
// initial compression, the LR GEMM's one compression of an updated tile,
// and every driver call it directly, so results are deterministic.
//
// recompress(): rounds a (possibly rank-inflated) U·Vᵀ back down: thin
// QRs of both factors, then the small core is rounded by compress()
// itself — the "recompression" stage that dominates TLR GEMM at high rank
// (Section IV, Fig. 2a). The Cholesky's LR GEMM no longer calls it: it
// sums a tile's updates densely and compresses once (hcore::gemm).
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

/// Compress a dense block to U·Vᵀ with ‖A − U·Vᵀ‖_F ≤ tol: a CPQR
/// truncated at tol, U with orthonormal columns and V = Aᵀ·U.
/// Returns std::nullopt if that would need more than `maxrank` columns —
/// the caller then keeps the tile dense (BAND-DENSE-TLR densification).
std::optional<LowRankFactor> compress(dense::ConstMatrixView a,
                                      const Accuracy& acc);

/// Numerical rank of a block at threshold `acc`: the rank compress()
/// returns with the rank cap lifted. It runs compress(), so it builds U and
/// V and discards them; the cost is that of one compression.
int numerical_rank(dense::ConstMatrixView a, const Accuracy& acc);

/// Round an existing factor down to the rank compress() finds for its
/// k×k core at `acc`, within the error bound compress() meets. Returns the
/// new rank; a result with no rank reduction keeps the existing factor.
/// acc.maxrank is not enforced. Cost: O(b·k²) QRs plus a truncated CPQR
/// of the k×k core.
int recompress(LowRankFactor& f, const Accuracy& acc);

/// ‖A − U·Vᵀ‖_F, for accuracy validation in tests.
double approximation_error(dense::ConstMatrixView a, const LowRankFactor& f);

/// Smallest k such that dropping singular values s[k:] keeps the Frobenius
/// tail at or below `tol` (s must be descending): the minimal rank any
/// factor meeting the threshold can have. compress() does not call it; it
/// is the SVD-truncation oracle the tests judge compress()'s rank against.
int truncation_rank(const std::vector<double>& s, double tol);

}  // namespace ptlr::compress
