#include "tlr/tlr_matrix.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

namespace ptlr::tlr {

TlrMatrix::TlrMatrix(int n, int tile_size)
    : n_(n), b_(tile_size), nt_((n + tile_size - 1) / tile_size) {
  PTLR_CHECK(n > 0 && tile_size > 0, "bad TLR matrix geometry");
  tiles_.resize(static_cast<std::size_t>(nt_) * (nt_ + 1) / 2);
}

std::size_t TlrMatrix::index(int i, int j) const {
  PTLR_CHECK(i >= 0 && i < nt_ && j >= 0 && j <= i,
             "tile index outside the lower triangle");
  return static_cast<std::size_t>(i) * (i + 1) / 2 + j;
}

int TlrMatrix::tile_rows(int i) const {
  PTLR_ASSERT(i >= 0 && i < nt_, "tile row out of range");
  return std::min(b_, n_ - i * b_);
}

Tile& TlrMatrix::at(int i, int j) { return tiles_[index(i, j)]; }
const Tile& TlrMatrix::at(int i, int j) const { return tiles_[index(i, j)]; }

namespace {

// Runs fn(t) for t = 0, 1, ... on `nthreads` workers claiming indices in
// that order from a shared counter (inline when one worker suffices). Once
// fn returns false, or throws, no worker claims another index; the first
// exception is rethrown on the calling thread.
template <class Fn>
void claim_in_order(int count, int nthreads, const Fn& fn) {
  PTLR_CHECK(nthreads >= 1, "need at least one worker");
  const int workers = std::min(nthreads, count);
  if (workers <= 1) {
    for (int t = 0; t < count; ++t)
      if (!fn(t)) return;
    return;
  }
  std::atomic<int> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      const int t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= count) return;
      try {
        if (fn(t)) continue;
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
      next.store(count, std::memory_order_relaxed);
      return;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

// fn(t) for every t in [0, count). Each index writes only its own tile, so
// the result is independent of the order and the thread count.
template <class Fn>
void parallel_for(int count, int nthreads, const Fn& fn) {
  claim_in_order(count, nthreads, [&](int t) {
    fn(t);
    return true;
  });
}

// Generate-and-compress one tile; shared by the builders. A tile is a
// pure function of (i, j), so the result does not depend on the build
// order or the thread count.
Tile build_tile(const stars::CovarianceProblem& prob, const TlrMatrix& m,
                int i, int j, const compress::Accuracy& acc, int band_size) {
  const int r0 = m.row_offset(i), c0 = m.row_offset(j);
  const int rows = m.tile_rows(i), cols = m.tile_rows(j);
  dense::Matrix blk = prob.block(r0, c0, rows, cols);
  if (TlrMatrix::on_band(i, j, band_size))
    return Tile::make_dense(std::move(blk));
  auto f = compress::compress(blk.view(), acc);
  if (f) return Tile::make_lowrank(std::move(*f));
  // Rank above the admissible cap: stay dense (densify-by-need).
  return Tile::make_dense(std::move(blk));
}

}  // namespace

TlrMatrix TlrMatrix::from_problem(const stars::CovarianceProblem& prob,
                                  int tile_size,
                                  const compress::Accuracy& acc,
                                  int band_size) {
  return from_problem_parallel(prob, tile_size, acc, 1, band_size);
}

TlrMatrix TlrMatrix::from_problem_parallel(
    const stars::CovarianceProblem& prob, int tile_size,
    const compress::Accuracy& acc, int nthreads, int band_size) {
  TlrMatrix m(prob.n(), tile_size);
  m.acc_ = acc;
  m.band_size_ = band_size;
  parallel_for(m.nt_ * (m.nt_ + 1) / 2, nthreads, [&](int t) {
    // Unpack the packed lower-triangle index.
    int i = static_cast<int>((std::sqrt(8.0 * t + 1.0) - 1.0) / 2.0);
    while ((i + 1) * (i + 2) / 2 <= t) ++i;
    const int j = t - i * (i + 1) / 2;
    m.at(i, j) = build_tile(prob, m, i, j, acc, band_size);
  });
  return m;
}

TlrMatrix TlrMatrix::from_problem_outside_in(
    const stars::CovarianceProblem& prob, int tile_size,
    const compress::Accuracy& acc, int nthreads,
    const std::function<int(const TlrMatrix&, int)>& pick) {
  TlrMatrix m(prob.n(), tile_size);
  m.acc_ = acc;
  const int nt = m.nt_;
  std::vector<std::pair<int, int>> order;
  for (int d = nt - 1; d >= 1; --d)
    for (int i = d; i < nt; ++i) order.emplace_back(i, i - d);
  // left[d]: tiles of sub-diagonal d not finished yet. Every sub-diagonal
  // >= offered is complete and has been handed to pick.
  std::vector<int> left(static_cast<std::size_t>(nt));
  for (int d = 1; d < nt; ++d) left[static_cast<std::size_t>(d)] = nt - d;
  int offered = nt, band = 0;
  std::mutex mu;
  claim_in_order(static_cast<int>(order.size()), nthreads, [&](int t) {
    const auto [i, j] = order[static_cast<std::size_t>(t)];
    m.at(i, j) = build_tile(prob, m, i, j, acc, 1);
    const std::lock_guard<std::mutex> lock(mu);
    --left[static_cast<std::size_t>(i - j)];
    while (band == 0 && offered > 1 &&
           left[static_cast<std::size_t>(offered - 1)] == 0) {
      --offered;
      band = pick(m, offered);
      PTLR_CHECK(band == 0 || band >= offered,
                 "band picked inside the compressed sub-diagonals");
    }
    return band == 0;
  });
  m.band_size_ = std::max(band, 1);

  // The band's storage is allocated on the calling thread, which owns the
  // matrix and so frees it too; the workers only fill it. Allocated on the
  // short-lived workers, it landed in another malloc arena from one build
  // to the next and was not reused: mle_fit's median peak RSS rose from
  // 26.8 to 32.0 MB.
  std::vector<std::pair<int, int>> dense;
  for (int i = 0; i < nt; ++i)
    for (int j = std::max(0, i - m.band_size_ + 1); j <= i; ++j) {
      dense.emplace_back(i, j);
      m.at(i, j) =
          Tile::make_dense(dense::Matrix(m.tile_rows(i), m.tile_rows(j)));
    }
  parallel_for(static_cast<int>(dense.size()), nthreads, [&](int t) {
    const auto [i, j] = dense[static_cast<std::size_t>(t)];
    prob.fill_block(m.row_offset(i), m.row_offset(j),
                    m.at(i, j).dense_data().view());
  });
  return m;
}

void TlrMatrix::densify_band(int band_size,
                             const stars::CovarianceProblem* regen,
                             int nthreads) {
  PTLR_CHECK(band_size >= 1, "band size must include the diagonal");
  std::vector<std::pair<int, int>> where;
  for (int i = 0; i < nt_; ++i) {
    for (int j = std::max(0, i - band_size + 1); j <= i; ++j) {
      if (at(i, j).is_dense()) continue;
      where.emplace_back(i, j);
    }
  }
  parallel_for(static_cast<int>(where.size()), nthreads, [&](int t) {
    const auto [i, j] = where[static_cast<std::size_t>(t)];
    Tile& tile = at(i, j);
    if (regen != nullptr) {
      tile = Tile::make_dense(regen->block(row_offset(i), row_offset(j),
                                           tile_rows(i), tile_rows(j)));
    } else {
      tile.densify();
    }
  });
  band_size_ = std::max(band_size_, band_size);
}

int TlrMatrix::sparsify_offdiagonal(const compress::Accuracy& acc) {
  int switched = 0;
  bool band_touched = false;
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j < i; ++j) {
      Tile& t = at(i, j);
      if (!t.is_dense()) continue;
      auto f = compress::compress(t.dense_data().view(), acc);
      // Switch only when the low-rank form actually saves memory
      // (2·b·k < b² — the maxrank < b/2 competitiveness rule).
      if (f && f->elements() < t.elements()) {
        t = Tile::make_lowrank(std::move(*f));
        ++switched;
        if (on_band(i, j, band_size_)) band_touched = true;
      }
    }
  if (band_touched) band_size_ = 1;
  return switched;
}

RankStats TlrMatrix::rank_stats() const {
  RankStats s;
  s.min = n_ + 1;
  long long count = 0, total = 0;
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j < i; ++j) {
      const Tile& t = at(i, j);
      if (!t.is_lowrank()) continue;
      const int k = t.rank();
      s.min = std::min(s.min, k);
      s.max = std::max(s.max, k);
      total += k;
      ++count;
    }
  if (count == 0) {
    s.min = 0;
    return s;
  }
  s.avg = static_cast<double>(total) / static_cast<double>(count);
  return s;
}

std::vector<int> TlrMatrix::subdiag_maxrank() const {
  std::vector<int> out(nt_, 0);
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j <= i; ++j) {
      const int d = i - j;
      out[d] = std::max(out[d], at(i, j).rank());
    }
  return out;
}

std::vector<double> TlrMatrix::rank_field() const {
  std::vector<double> field(static_cast<std::size_t>(nt_) * nt_, -1.0);
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j <= i; ++j)
      field[static_cast<std::size_t>(i) * nt_ + j] = at(i, j).rank();
  return field;
}

std::size_t TlrMatrix::footprint_elements() const {
  std::size_t total = 0;
  for (const Tile& t : tiles_) total += t.elements();
  return total;
}

std::size_t TlrMatrix::static_footprint_elements(int maxrank) const {
  // PaRSEC-HiCMA-Prev descriptor: b² per diagonal tile, 2·b·maxrank per
  // off-diagonal tile regardless of actual rank.
  std::size_t total = 0;
  for (int i = 0; i < nt_; ++i) {
    total += static_cast<std::size_t>(tile_rows(i)) * tile_rows(i);
    for (int j = 0; j < i; ++j) {
      total += 2 * static_cast<std::size_t>(b_) * maxrank;
    }
  }
  return total;
}

dense::Matrix TlrMatrix::to_dense() const {
  dense::Matrix out(n_, n_);
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j <= i; ++j) {
      const dense::Matrix blk = at(i, j).to_dense();
      const int r0 = row_offset(i), c0 = row_offset(j);
      for (int c = 0; c < blk.cols(); ++c)
        for (int r = 0; r < blk.rows(); ++r) {
          out(r0 + r, c0 + c) = blk(r, c);
          out(c0 + c, r0 + r) = blk(r, c);
        }
    }
  return out;
}

}  // namespace ptlr::tlr
