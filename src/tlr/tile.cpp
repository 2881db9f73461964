#include "tlr/tile.hpp"

#include <limits>

#include "dense/util.hpp"

namespace ptlr::tlr {

int Tile::rows() const {
  return is_dense() ? std::get<dense::Matrix>(storage_).rows()
                    : std::get<compress::LowRankFactor>(storage_).rows();
}

int Tile::cols() const {
  return is_dense() ? std::get<dense::Matrix>(storage_).cols()
                    : std::get<compress::LowRankFactor>(storage_).cols();
}

int Tile::rank() const {
  return is_dense() ? std::min(rows(), cols())
                    : std::get<compress::LowRankFactor>(storage_).rank();
}

std::size_t Tile::elements() const {
  return is_dense() ? std::get<dense::Matrix>(storage_).size()
                    : std::get<compress::LowRankFactor>(storage_).elements();
}

dense::Matrix& Tile::dense_data() {
  PTLR_CHECK(is_dense(), "tile is not dense");
  return std::get<dense::Matrix>(storage_);
}

const dense::Matrix& Tile::dense_data() const {
  PTLR_CHECK(is_dense(), "tile is not dense");
  return std::get<dense::Matrix>(storage_);
}

compress::LowRankFactor& Tile::lr() {
  PTLR_CHECK(is_lowrank(), "tile is not low-rank");
  return std::get<compress::LowRankFactor>(storage_);
}

const compress::LowRankFactor& Tile::lr() const {
  PTLR_CHECK(is_lowrank(), "tile is not low-rank");
  return std::get<compress::LowRankFactor>(storage_);
}

dense::Matrix Tile::to_dense() const {
  return is_dense() ? std::get<dense::Matrix>(storage_)
                    : std::get<compress::LowRankFactor>(storage_).to_dense();
}

bool Tile::payload_finite() const {
  if (is_dense())
    return dense::all_finite(std::get<dense::Matrix>(storage_).view());
  const auto& f = std::get<compress::LowRankFactor>(storage_);
  return dense::all_finite(f.u.view()) && dense::all_finite(f.v.view());
}

bool Tile::poison_payload(std::uint64_t h) {
  dense::Matrix* target = nullptr;
  if (is_dense()) {
    target = &std::get<dense::Matrix>(storage_);
  } else {
    auto& f = std::get<compress::LowRankFactor>(storage_);
    // Alternate factors by one hash bit; fall through to the other when
    // the chosen one is empty.
    target = (h & 1) != 0 || f.v.size() == 0 ? &f.u : &f.v;
    if (target->size() == 0) target = &f.v;
  }
  if (target == nullptr || target->size() == 0) return false;
  target->data()[(h >> 1) % target->size()] =
      std::numeric_limits<double>::quiet_NaN();
  return true;
}

void Tile::densify() {
  if (is_dense()) return;
  storage_ = std::get<compress::LowRankFactor>(storage_).to_dense();
}

bool Tile::compress_to(const compress::Accuracy& acc) {
  if (is_lowrank()) {
    compress::recompress(std::get<compress::LowRankFactor>(storage_), acc);
    return true;
  }
  auto f = compress::compress(std::get<dense::Matrix>(storage_).view(), acc);
  if (!f) return false;
  storage_ = std::move(*f);
  return true;
}

}  // namespace ptlr::tlr
