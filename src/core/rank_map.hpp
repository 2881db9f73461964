// Rank information escalated from the compression step to the runtime.
//
// This is the paper's central plumbing: "propagate the rank information to
// PaRSEC so that it can take proper runtime decisions" (Section I). A
// RankMap records, per tile, whether the tile is dense and (if compressed)
// its numerical rank. It is built from a really-compressed TlrMatrix for
// laptop-scale runs, or synthesized from a calibrated decay model for
// virtual-cluster studies at the paper's scales.
#pragma once

#include <vector>

#include "tlr/tlr_matrix.hpp"

namespace ptlr::core {

/// Parametric model of rank decay with sub-diagonal distance d = i-j:
///   rank(d) = max(kmin, kmax · d^(-alpha)),  d >= 1,
/// the empirical shape of st-3D-exp rank heat maps (Fig. 1): high ranks
/// hugging the diagonal, slow polynomial decay outward.
struct RankDecayModel {
  int kmax = 0;        ///< rank at the first sub-diagonal
  int kmin = 1;        ///< asymptotic far-field rank
  double alpha = 0.8;  ///< polynomial decay exponent

  [[nodiscard]] int rank_at(int d) const;

  /// Fit kmax/kmin/alpha from an actually compressed matrix (least squares
  /// on log rank vs log distance of the per-sub-diagonal maxima).
  static RankDecayModel fit(const tlr::TlrMatrix& m);
};

/// Per-tile format and rank snapshot.
class RankMap {
 public:
  /// Snapshot of a compressed matrix (real ranks).
  static RankMap from_matrix(const tlr::TlrMatrix& m);

  /// Synthetic map for an nt×nt tile grid from the decay model, with
  /// everything outside the band compressed.
  static RankMap synthetic(int nt, int tile_size,
                           const RankDecayModel& model, int band_size = 1);

  [[nodiscard]] int nt() const { return nt_; }
  [[nodiscard]] int tile_size() const { return b_; }
  /// Tile rows for tile-row i (handles a short trailing tile).
  [[nodiscard]] int tile_rows(int i) const;

  [[nodiscard]] bool is_dense(int i, int j) const;
  /// Rank of tile (i, j): the compression rank for low-rank tiles, the
  /// full tile size for dense ones.
  [[nodiscard]] int rank(int i, int j) const;

  /// Mark tile (i, j) dense at its full rank (densification on demand).
  void densify(int i, int j);
  /// densify() every tile with i-j < band_size (the densification the
  /// auto-tuner decides on). Never un-densifies.
  void set_band(int band_size);
  [[nodiscard]] int band_size() const { return band_; }

  /// Max rank over compressed tiles (ratio_maxrank numerator, Section IV).
  [[nodiscard]] int maxrank() const;
  /// Average rank over compressed tiles.
  [[nodiscard]] double avgrank() const;

 private:
  RankMap(int nt, int b, int n);
  [[nodiscard]] std::size_t index(int i, int j) const;

  int nt_ = 0, b_ = 0, n_ = 0, band_ = 1;
  std::vector<int> rank_;        // packed lower triangle
  std::vector<char> dense_;      // packed lower triangle
};

}  // namespace ptlr::core
