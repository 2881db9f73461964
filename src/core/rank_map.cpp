#include "core/rank_map.hpp"

#include <algorithm>
#include <cmath>

namespace ptlr::core {

int RankDecayModel::rank_at(int d) const {
  if (d <= 0) return kmax;
  const double r = kmax * std::pow(static_cast<double>(d), -alpha);
  return std::max(kmin, static_cast<int>(std::lround(r)));
}

RankDecayModel RankDecayModel::fit(const tlr::TlrMatrix& m) {
  // Least squares of log(max rank per sub-diagonal) against log(d).
  const auto sub = m.subdiag_maxrank();
  RankDecayModel model;
  model.kmin = m.tile_size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int count = 0;
  for (int d = 1; d < static_cast<int>(sub.size()); ++d) {
    if (sub[d] <= 0) continue;
    model.kmin = std::min(model.kmin, sub[d]);
    const double x = std::log(static_cast<double>(d));
    const double y = std::log(static_cast<double>(sub[d]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++count;
  }
  if (count < 2) {
    model.kmax = count == 1 ? sub[1] : m.tile_size() / 2;
    model.alpha = 0.0;
    return model;
  }
  const double denom = count * sxx - sx * sx;
  const double slope = denom != 0.0 ? (count * sxy - sx * sy) / denom : 0.0;
  const double intercept = (sy - slope * sx) / count;
  model.alpha = std::max(0.0, -slope);
  model.kmax = std::max(
      model.kmin, static_cast<int>(std::lround(std::exp(intercept))));
  return model;
}

RankMap::RankMap(int nt, int b, int n) : nt_(nt), b_(b), n_(n) {
  const auto sz = static_cast<std::size_t>(nt) * (nt + 1) / 2;
  rank_.assign(sz, 0);
  dense_.assign(sz, 0);
}

std::size_t RankMap::index(int i, int j) const {
  PTLR_CHECK(i >= 0 && i < nt_ && j >= 0 && j <= i,
             "rank map index outside the lower triangle");
  return static_cast<std::size_t>(i) * (i + 1) / 2 + j;
}

int RankMap::tile_rows(int i) const { return std::min(b_, n_ - i * b_); }

RankMap RankMap::from_matrix(const tlr::TlrMatrix& m) {
  RankMap out(m.nt(), m.tile_size(), m.n());
  out.band_ = m.band_size();
  for (int i = 0; i < m.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      const auto& t = m.at(i, j);
      out.dense_[out.index(i, j)] = t.is_dense() ? 1 : 0;
      out.rank_[out.index(i, j)] = t.rank();
    }
  return out;
}

RankMap RankMap::synthetic(int nt, int tile_size,
                           const RankDecayModel& model, int band_size) {
  RankMap out(nt, tile_size, nt * tile_size);
  out.band_ = band_size;
  for (int i = 0; i < nt; ++i)
    for (int j = 0; j <= i; ++j) {
      const int d = i - j;
      const auto idx = out.index(i, j);
      if (d < band_size) {
        out.dense_[idx] = 1;
        out.rank_[idx] = tile_size;
      } else {
        out.dense_[idx] = 0;
        out.rank_[idx] = std::min(model.rank_at(d), tile_size);
      }
    }
  return out;
}

bool RankMap::is_dense(int i, int j) const { return dense_[index(i, j)] != 0; }

int RankMap::rank(int i, int j) const { return rank_[index(i, j)]; }

void RankMap::densify(int i, int j) {
  const auto idx = index(i, j);
  dense_[idx] = 1;
  rank_[idx] = std::min(tile_rows(i), tile_rows(j));
}

void RankMap::set_band(int band_size) {
  PTLR_CHECK(band_size >= 1, "band must include the diagonal");
  for (int i = 0; i < nt_; ++i)
    for (int j = std::max(0, i - band_size + 1); j <= i; ++j) densify(i, j);
  band_ = std::max(band_, band_size);
}

int RankMap::maxrank() const {
  int k = 0;
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j <= i; ++j)
      if (!is_dense(i, j)) k = std::max(k, rank(i, j));
  return k;
}

double RankMap::avgrank() const {
  long long total = 0, count = 0;
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j <= i; ++j)
      if (!is_dense(i, j)) {
        total += rank(i, j);
        ++count;
      }
  return count > 0 ? static_cast<double>(total) / static_cast<double>(count)
                   : 0.0;
}

}  // namespace ptlr::core
