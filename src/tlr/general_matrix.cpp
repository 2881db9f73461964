#include "tlr/general_matrix.hpp"

#include <algorithm>

#include "dense/blas.hpp"

namespace ptlr::tlr {

TlrGeneralMatrix::TlrGeneralMatrix(int m, int n, int tile_size)
    : m_(m), n_(n), b_(tile_size),
      mt_((m + tile_size - 1) / tile_size),
      nt_((n + tile_size - 1) / tile_size) {
  PTLR_CHECK(m > 0 && n > 0 && tile_size > 0, "bad matrix geometry");
  tiles_.resize(static_cast<std::size_t>(mt_) * nt_);
}

int TlrGeneralMatrix::tile_rows(int i) const {
  PTLR_ASSERT(i >= 0 && i < mt_, "tile row out of range");
  return std::min(b_, m_ - i * b_);
}

int TlrGeneralMatrix::tile_cols(int j) const {
  PTLR_ASSERT(j >= 0 && j < nt_, "tile col out of range");
  return std::min(b_, n_ - j * b_);
}

Tile& TlrGeneralMatrix::at(int i, int j) {
  PTLR_CHECK(i >= 0 && i < mt_ && j >= 0 && j < nt_, "tile out of range");
  return tiles_[static_cast<std::size_t>(i) * nt_ + j];
}

const Tile& TlrGeneralMatrix::at(int i, int j) const {
  PTLR_CHECK(i >= 0 && i < mt_ && j >= 0 && j < nt_, "tile out of range");
  return tiles_[static_cast<std::size_t>(i) * nt_ + j];
}

TlrGeneralMatrix TlrGeneralMatrix::from_cross_covariance(
    const stars::CrossCovariance& op, int tile_size,
    const compress::Accuracy& acc) {
  TlrGeneralMatrix out(op.rows(), op.cols(), tile_size);
  for (int i = 0; i < out.mt_; ++i)
    for (int j = 0; j < out.nt_; ++j) {
      dense::Matrix blk = op.block(out.row_offset(i), out.col_offset(j),
                                   out.tile_rows(i), out.tile_cols(j));
      auto f = compress::compress(blk.view(), acc);
      out.at(i, j) = f ? Tile::make_lowrank(std::move(*f))
                       : Tile::make_dense(std::move(blk));
    }
  return out;
}

namespace {

void tile_apply(const Tile& t, const double* x, double* y, bool transpose) {
  using dense::Trans;
  if (t.is_dense()) {
    dense::gemv(transpose ? Trans::T : Trans::N, 1.0,
                t.dense_data().view(), x, 1.0, y);
    return;
  }
  const auto& f = t.lr();
  if (f.rank() == 0) return;
  std::vector<double> w(static_cast<std::size_t>(f.rank()));
  if (!transpose) {
    dense::gemv(Trans::T, 1.0, f.v.view(), x, 0.0, w.data());
    dense::gemv(Trans::N, 1.0, f.u.view(), w.data(), 1.0, y);
  } else {
    dense::gemv(Trans::T, 1.0, f.u.view(), x, 0.0, w.data());
    dense::gemv(Trans::N, 1.0, f.v.view(), w.data(), 1.0, y);
  }
}

}  // namespace

std::vector<double> TlrGeneralMatrix::apply(
    const std::vector<double>& x) const {
  PTLR_CHECK(static_cast<int>(x.size()) == n_, "apply size mismatch");
  std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < mt_; ++i)
    for (int j = 0; j < nt_; ++j)
      tile_apply(at(i, j), x.data() + col_offset(j),
                 y.data() + row_offset(i), false);
  return y;
}

std::vector<double> TlrGeneralMatrix::apply_transpose(
    const std::vector<double>& x) const {
  PTLR_CHECK(static_cast<int>(x.size()) == m_, "apply size mismatch");
  std::vector<double> y(static_cast<std::size_t>(n_), 0.0);
  for (int i = 0; i < mt_; ++i)
    for (int j = 0; j < nt_; ++j)
      tile_apply(at(i, j), x.data() + row_offset(i),
                 y.data() + col_offset(j), true);
  return y;
}

std::size_t TlrGeneralMatrix::footprint_elements() const {
  std::size_t total = 0;
  for (const Tile& t : tiles_) total += t.elements();
  return total;
}

dense::Matrix TlrGeneralMatrix::to_dense() const {
  dense::Matrix out(m_, n_);
  for (int i = 0; i < mt_; ++i)
    for (int j = 0; j < nt_; ++j) {
      const dense::Matrix blk = at(i, j).to_dense();
      for (int c = 0; c < blk.cols(); ++c)
        for (int r = 0; r < blk.rows(); ++r)
          out(row_offset(i) + r, col_offset(j) + c) = blk(r, c);
    }
  return out;
}

}  // namespace ptlr::tlr
