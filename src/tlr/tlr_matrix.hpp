// Symmetric tile low-rank matrix container.
//
// Holds the lower triangle of an n×n SPD operator as an NT×NT grid of
// tiles: dense on the diagonal (and, after densification, on the first
// BAND_SIZE sub-diagonals), U·Vᵀ compressed elsewhere. Unlike HiCMA's
// ScaLAPACK-style descriptor (one static maxrank for every tile —
// Section III-B), each tile owns exactly the memory its actual rank needs:
// this container is the "dynamic memory designation" side of the paper.
#pragma once

#include <functional>
#include <vector>

#include "compress/compress.hpp"
#include "stars/problem.hpp"
#include "tlr/tile.hpp"

namespace ptlr::tlr {

/// min/avg/max summary of off-diagonal tile ranks (Fig. 1 annotations).
struct RankStats {
  int min = 0;
  int max = 0;
  double avg = 0.0;
};

/// Lower-triangular symmetric tile matrix with per-tile formats.
class TlrMatrix {
 public:
  /// Empty grid of default-constructed tiles.
  TlrMatrix(int n, int tile_size);

  /// Compress a covariance operator: diagonal tiles (and the first
  /// `band_size` sub-diagonals) stay dense, the rest compress at `acc`;
  /// tiles whose rank would exceed acc.maxrank also stay dense.
  static TlrMatrix from_problem(const stars::CovarianceProblem& prob,
                                int tile_size, const compress::Accuracy& acc,
                                int band_size = 1);

  /// Parallel variant: generation + compression of the tiles as one task
  /// per tile on `nthreads` workers (how PaRSEC parallelizes the paper's
  /// matrix-generation and regeneration steps). Deterministic: bitwise
  /// equal to the sequential from_problem for the same inputs.
  static TlrMatrix from_problem_parallel(
      const stars::CovarianceProblem& prob, int tile_size,
      const compress::Accuracy& acc, int nthreads, int band_size = 1);

  /// Build for a band picked while compressing (core::build_auto_band).
  /// Off-diagonal tiles are generated and compressed one sub-diagonal at a
  /// time from the outermost inward, claimed in that order from one counter
  /// by `nthreads` workers. Once sub-diagonal d and every one outside it are
  /// complete, `pick(m, d)` runs on the worker that completed the last of
  /// them, one call at a time, and may read those tiles. It returns 0 to go
  /// on, or the band W >= d: no tile is claimed after that, and the tiles
  /// with i-j < W, including those compressed already, are generated dense
  /// (W is 1 when no call decides). The tiles are then bitwise those of
  /// from_problem(prob, tile_size, acc, W) at any thread count. A worker's
  /// exception, or pick's, stops the claims and is rethrown here.
  static TlrMatrix from_problem_outside_in(
      const stars::CovarianceProblem& prob, int tile_size,
      const compress::Accuracy& acc, int nthreads,
      const std::function<int(const TlrMatrix&, int)>& pick);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int tile_size() const { return b_; }
  /// Number of tiles per dimension (NT in the paper).
  [[nodiscard]] int nt() const { return nt_; }
  /// Rows in tile-row i (the last tile may be short).
  [[nodiscard]] int tile_rows(int i) const;
  /// Global row offset of tile-row i.
  [[nodiscard]] int row_offset(int i) const { return i * b_; }
  [[nodiscard]] const compress::Accuracy& accuracy() const { return acc_; }
  /// Record the accuracy the tiles were compressed at (used by loaders;
  /// from_problem sets it automatically).
  void set_accuracy(const compress::Accuracy& acc) { acc_ = acc; }
  /// Number of dense sub-diagonals including the main one (BAND_SIZE).
  [[nodiscard]] int band_size() const { return band_size_; }

  /// Tile (i, j) with i >= j (lower triangle).
  [[nodiscard]] Tile& at(int i, int j);
  [[nodiscard]] const Tile& at(int i, int j) const;

  /// True if tile (i, j) lies within the dense band of width `band`.
  [[nodiscard]] static bool on_band(int i, int j, int band) {
    return i - j < band;
  }

  /// Densify every tile with i-j < band_size. When `regen` is non-null the
  /// band tiles are regenerated exactly from the problem (the paper's
  /// "matrix regeneration" step after BAND_SIZE tuning); otherwise the
  /// existing low-rank factors are expanded. One task per tile on
  /// `nthreads` workers; the tiles are bitwise independent of the count.
  void densify_band(int band_size,
                    const stars::CovarianceProblem* regen = nullptr,
                    int nthreads = 1);

  /// Sparsify-on-demand (the flip side of the paper's Section IX adaptive
  /// policy): try to compress every dense *off-diagonal* tile at `acc`
  /// (e.g. band tiles of a computed factor before archiving it). Returns
  /// the number of tiles that switched to low-rank. Diagonal tiles stay
  /// dense; band_size is reduced to 1 if any band tile compressed.
  int sparsify_offdiagonal(const compress::Accuracy& acc);

  /// Rank statistics over compressed off-diagonal tiles.
  [[nodiscard]] RankStats rank_stats() const;

  /// Max rank per sub-diagonal d = i-j (index 0 = main diagonal, reported
  /// as the tile size since diagonal tiles are dense).
  [[nodiscard]] std::vector<int> subdiag_maxrank() const;

  /// nt×nt row-major field of tile ranks for heat maps: -1 above the
  /// diagonal, tile_rows(i) for dense tiles, k for compressed ones.
  [[nodiscard]] std::vector<double> rank_field() const;

  /// Exact storage footprint in scalar elements (the "New" allocation).
  [[nodiscard]] std::size_t footprint_elements() const;

  /// Footprint under the ScaLAPACK-style static descriptor of
  /// PaRSEC-HiCMA-Prev: every off-diagonal tile budgeted at 2·b·maxrank.
  [[nodiscard]] std::size_t static_footprint_elements(int maxrank) const;

  /// Assemble the full symmetric dense matrix (tests / small n only).
  [[nodiscard]] dense::Matrix to_dense() const;

 private:
  [[nodiscard]] std::size_t index(int i, int j) const;

  int n_ = 0;
  int b_ = 0;
  int nt_ = 0;
  int band_size_ = 1;
  compress::Accuracy acc_;
  std::vector<Tile> tiles_;  // lower triangle, row-major packed
};

}  // namespace ptlr::tlr
