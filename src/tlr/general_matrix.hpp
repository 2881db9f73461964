// Rectangular (general, non-symmetric) tile low-rank matrix.
//
// The symmetric TlrMatrix covers the covariance operator; general TLR
// matrices cover everything else HiCMA-style libraries expose — most
// importantly the cross-covariance Σ* between observation and prediction
// locations, the operator of geostatistical prediction (kriging). All
// tiles may independently be dense or U·Vᵀ.
#pragma once

#include "compress/compress.hpp"
#include "stars/problem.hpp"
#include "tlr/tile.hpp"

namespace ptlr::tlr {

/// mt×nt grid of tiles over an m×n matrix.
class TlrGeneralMatrix {
 public:
  TlrGeneralMatrix(int m, int n, int tile_size);

  /// Compress a cross-covariance operator at `acc`; tiles whose rank would
  /// exceed acc.maxrank stay dense.
  static TlrGeneralMatrix from_cross_covariance(
      const stars::CrossCovariance& op, int tile_size,
      const compress::Accuracy& acc);

  [[nodiscard]] int m() const { return m_; }
  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int tile_size() const { return b_; }
  [[nodiscard]] int mt() const { return mt_; }
  [[nodiscard]] int nt() const { return nt_; }
  [[nodiscard]] int tile_rows(int i) const;
  [[nodiscard]] int tile_cols(int j) const;
  [[nodiscard]] int row_offset(int i) const { return i * b_; }
  [[nodiscard]] int col_offset(int j) const { return j * b_; }

  [[nodiscard]] Tile& at(int i, int j);
  [[nodiscard]] const Tile& at(int i, int j) const;

  /// y = A·x (no transpose) and y = Aᵀ·x.
  [[nodiscard]] std::vector<double> apply(
      const std::vector<double>& x) const;
  [[nodiscard]] std::vector<double> apply_transpose(
      const std::vector<double>& x) const;

  /// Storage in scalar elements.
  [[nodiscard]] std::size_t footprint_elements() const;

  /// Materialize densely (tests / small sizes).
  [[nodiscard]] dense::Matrix to_dense() const;

 private:
  int m_ = 0, n_ = 0, b_ = 0, mt_ = 0, nt_ = 0;
  std::vector<Tile> tiles_;  // row-major grid
};

}  // namespace ptlr::tlr
