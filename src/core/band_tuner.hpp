// BAND_SIZE auto-tuning via the flop-count performance model (Algorithm 1).
//
// The tuner prices F(W), the total flops of the BAND-DENSE-TLR Cholesky
// when the tiles with i-j < W are rolled back to dense, each task priced
// by core::TaskCosts as the task graph prices it, and picks a W
// inside the fluctuation box [F_min, F_min/0.67] of the optimum (Section
// V-B, Fig. 6). Choosing inside the box (not the argmin) hedges against
// TRSM/SYRK flop growth near the critical path and rank growth during the
// factorization.
//
// The pick is an outside-in scan. F(W) reads no rank inside W, so the
// candidates are priced from the widest inward, and the scan stops at the
// first W whose F(W) exceeds the running minimum / 0.67. Every W scanned
// before it lies inside the box of the running minimum, so the pick is the
// last of them, exit + 1 (1 when the scan reaches W = 1). Ranks decay
// away from the diagonal (Fig. 1), so F(W) has one minimum, and the pick is
// then the smallest W inside the box of the global F_min. The scan needs
// only the sub-diagonals it has priced, which lets build_auto_band run it
// while compressing and never compress the tiles that the band makes dense
// (docs/band_dense_tlr.md).
#pragma once

#include "core/rank_map.hpp"

namespace ptlr::core {

/// Outcome of the auto-tuning pass, including the per-sub-diagonal marginal
/// comparison of Fig. 6c and the total-flops curve of Fig. 6b.
struct BandTuneResult {
  int band_size = 1;                     ///< the tuned BAND_SIZE
  std::vector<double> total_by_band;     ///< F(W) for W = 1..wmax (index W-1)
  std::vector<double> dense_subdiag;     ///< marginal flops of sub-diagonal d
                                         ///  when densified (index d, d >= 1)
  std::vector<double> tlr_subdiag;       ///< same sub-diagonal kept TLR
  double fluctuation_lo = 0.67;          ///< box lower bound used
};

/// Run Algorithm 1 on the initial rank map (band must still be 1, i.e. the
/// state right after compression). `wmax` limits the candidate widths
/// (0 → min(nt, 64)). Prices every W for total_by_band; the pick is the
/// scan's.
BandTuneResult tune_band_size(const RankMap& ranks, int wmax = 0,
                              double fluctuation_lo = 0.67);

/// What the scan of build_auto_band priced. It stopped at W = band_size - 1
/// (none when the band is 1, where it reached W = 1).
struct BandScan {
  int band_size = 1;          ///< the pick
  int wmax = 0;               ///< the widest candidate, priced first
  std::vector<double> flops;  ///< F(W) as priced: index k holds W = wmax - k
};

/// Σ with its band picked while compressing: Algorithm 1 run outside in on
/// `nthreads` workers (tlr::TlrMatrix::from_problem_outside_in), with
/// candidates up to min(nt, 64) and the box bound `fluctuation_lo`. Tiles
/// with i-j >= band are compressed and the band is generated dense; inside
/// the exit sub-diagonal only tiles that other workers claimed before the
/// scan stopped were compressed (none with one worker). The pick equals
/// tune_band_size's on the fully compressed matrix, with each F(W) bitwise
/// its total_by_band[W-1], and the tiles are then bitwise those of
/// from_problem(prob, tile_size, acc, band), at any thread count.
tlr::TlrMatrix build_auto_band(const stars::CovarianceProblem& prob,
                               int tile_size, const compress::Accuracy& acc,
                               int nthreads, double fluctuation_lo = 0.67,
                               BandScan* scan = nullptr);

}  // namespace ptlr::core
