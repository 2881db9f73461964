#include "core/band_tuner.hpp"

#include <algorithm>
#include <limits>

#include "hcore/kernels.hpp"

namespace ptlr::core {

namespace {

using flops::Kernel;

// The Table I cost of each task of the tile Cholesky when the band is W.
// `Ranks` is a RankMap or a matrix under construction; a tile is read only
// when it lies outside the band (i-j >= W), where it is dense only if its
// rank exceeded the cap.
template <class Ranks>
class TaskCosts {
 public:
  TaskCosts(const Ranks& r, int b, int w) : r_(r), b_(b), w_(w) {}

  [[nodiscard]] bool dense(int i, int j) const {
    return i - j < w_ || r_.is_dense(i, j);
  }
  /// SYRK of step k on diagonal tile (i, i), reading (i, k).
  [[nodiscard]] double syrk(int i, int k) const {
    return dense(i, k) ? flops::model(Kernel::kSyrk1, b_, 0)
                       : flops::model(Kernel::kSyrk3, b_, r_.rank(i, k));
  }
  /// TRSM writing (i, j).
  [[nodiscard]] double trsm(int i, int j) const {
    return dense(i, j) ? flops::model(Kernel::kTrsm1, b_, 0)
                       : flops::model(Kernel::kTrsm4, b_, r_.rank(i, j));
  }
  /// GEMM of step k writing (i, j), reading (i, k) and (j, k).
  [[nodiscard]] double gemm(int i, int j, int k) const {
    const bool ad = dense(i, k), bd = dense(j, k), cd = dense(i, j);
    int kk = 1;
    if (!ad) kk = std::max(kk, r_.rank(i, k));
    if (!bd) kk = std::max(kk, r_.rank(j, k));
    if (!cd) kk = std::max(kk, r_.rank(i, j));
    return hcore::gemm_model_flops(ad, bd, cd, b_, kk);
  }
  /// The TRSM and GEMMs writing sub-diagonal d (the Fig. 6c marginal).
  [[nodiscard]] double writing(int nt, int d) const {
    double f = 0.0;
    for (int i = d; i < nt; ++i) {
      const int j = i - d;
      f += trsm(i, j);
      for (int k = 0; k < j; ++k) f += gemm(i, j, k);
    }
    return f;
  }

 private:
  const Ranks& r_;
  int b_, w_;
};

// F(W) from the widest candidate inward: F(wmax) sums every task, and
// F(W) = F(W+1) plus the change of the tasks that touch sub-diagonal W,
// whose tiles turn low-rank at W. Each F(W) reads only tiles with
// i-j >= W, with the same arithmetic whether the inner tiles exist yet or
// not, so a scan during the build prices bitwise what tune_band_size
// prices on the finished map.
class OutsideInFlops {
 public:
  OutsideInFlops(int nt, int b, int wmax) : nt_(nt), b_(b), w_(wmax) {}

  /// The candidate the next price() call prices (wmax first); 0 when done.
  [[nodiscard]] int next() const { return w_; }

  /// F(next()); `r` must hold every tile with i-j >= next().
  template <class Ranks>
  double price(const Ranks& r) {
    f_ = priced_ ? f_ + change(r, w_) : total(r, w_);
    priced_ = true;
    --w_;
    return f_;
  }

 private:
  template <class Ranks>
  double total(const Ranks& r, int w) const {
    const TaskCosts<Ranks> c(r, b_, w);
    double f = 0.0;
    for (int i = 0; i < nt_; ++i) {
      f += flops::model(Kernel::kPotrf1, b_, 0);
      for (int k = 0; k < i; ++k) f += c.syrk(i, k);
    }
    for (int i = 1; i < nt_; ++i)
      for (int j = 0; j < i; ++j) {
        f += c.trsm(i, j);
        for (int k = 0; k < j; ++k) f += c.gemm(i, j, k);
      }
    return f;
  }

  // F(w) - F(w+1): every task reading or writing a tile (p, q) with
  // p - q = w, once each. Such a tile is C of GEMM(p, q, k), A of
  // GEMM(p, j, q) and B of GEMM(i, p, q); a GEMM whose C and B both lie on
  // sub-diagonal w is counted as the C of its own tile.
  template <class Ranks>
  double change(const Ranks& r, int w) const {
    const TaskCosts<Ranks> lo(r, b_, w), hi(r, b_, w + 1);
    double f = 0.0;
    for (int p = w; p < nt_; ++p) {
      const int q = p - w;
      f += lo.syrk(p, q) - hi.syrk(p, q);
      f += lo.trsm(p, q) - hi.trsm(p, q);
      for (int k = 0; k < q; ++k) f += lo.gemm(p, q, k) - hi.gemm(p, q, k);
      for (int j = q + 1; j < p; ++j)
        f += lo.gemm(p, j, q) - hi.gemm(p, j, q);
      for (int i = p + 1; i < nt_; ++i)
        if (i - p != w) f += lo.gemm(i, p, q) - hi.gemm(i, p, q);
    }
    return f;
  }

  int nt_, b_, w_;
  double f_ = 0.0;
  bool priced_ = false;
};

// The stop rule of the scan (band_tuner.hpp): offer F(W) for W = wmax,
// wmax-1, ... until done().
class ScanRule {
 public:
  explicit ScanRule(double fluctuation_lo) : lo_(fluctuation_lo) {
    PTLR_CHECK(lo_ > 0.0 && lo_ <= 1.0,
               "fluctuation bound must be in (0, 1]");
  }

  void offer(int w, double f) {
    if (f > fmin_ / lo_) {
      exit_ = w;
      done_ = true;
      return;
    }
    fmin_ = std::min(fmin_, f);
    done_ = w == 1;
  }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] int pick() const { return exit_ + 1; }

 private:
  double lo_;
  double fmin_ = std::numeric_limits<double>::infinity();
  int exit_ = 0;
  bool done_ = false;
};

// The formats and ranks of a matrix's tiles, as a RankMap would hold them.
struct TileRanks {
  const tlr::TlrMatrix& m;
  [[nodiscard]] bool is_dense(int i, int j) const {
    return m.at(i, j).is_dense();
  }
  [[nodiscard]] int rank(int i, int j) const { return m.at(i, j).rank(); }
};

}  // namespace

BandTuneResult tune_band_size(const RankMap& ranks, int wmax,
                              double fluctuation_lo) {
  const int nt = ranks.nt();
  const int b = ranks.tile_size();
  if (wmax <= 0) wmax = std::min(nt, 64);
  ScanRule rule(fluctuation_lo);

  BandTuneResult out;
  out.fluctuation_lo = fluctuation_lo;
  out.total_by_band.resize(static_cast<std::size_t>(wmax), 0.0);
  OutsideInFlops model(nt, b, wmax);
  for (int w = wmax; w >= 1; --w) {
    const double f = model.price(ranks);
    out.total_by_band[static_cast<std::size_t>(w - 1)] = f;
    if (!rule.done()) rule.offer(w, f);
  }
  out.band_size = rule.pick();

  // Marginal per-sub-diagonal comparison (Fig. 6c): the tasks writing
  // sub-diagonal d in dense format under W = d+1 vs TLR format under W = d.
  out.dense_subdiag.assign(static_cast<std::size_t>(nt), 0.0);
  out.tlr_subdiag.assign(static_cast<std::size_t>(nt), 0.0);
  for (int d = 1; d < nt; ++d) {
    if (d + 1 <= wmax)
      out.dense_subdiag[static_cast<std::size_t>(d)] =
          TaskCosts<RankMap>(ranks, b, d + 1).writing(nt, d);
    if (d <= wmax)
      out.tlr_subdiag[static_cast<std::size_t>(d)] =
          TaskCosts<RankMap>(ranks, b, d).writing(nt, d);
  }
  return out;
}

double cholesky_model_flops(const RankMap& ranks, int band_size) {
  OutsideInFlops model(ranks.nt(), ranks.tile_size(), band_size);
  return model.price(ranks);
}

tlr::TlrMatrix build_auto_band(const stars::CovarianceProblem& prob,
                               int tile_size, const compress::Accuracy& acc,
                               int nthreads, double fluctuation_lo,
                               BandScan* scan) {
  const int nt = (prob.n() + tile_size - 1) / tile_size;
  const int wmax = std::min(nt, 64);
  OutsideInFlops model(nt, tile_size, wmax);
  ScanRule rule(fluctuation_lo);
  BandScan s;
  s.wmax = wmax;
  // Runs once per finished sub-diagonal d, outermost first: price every
  // candidate W >= d not priced yet.
  auto pick = [&](const tlr::TlrMatrix& m, int d) {
    while (!rule.done() && model.next() >= d) {
      const int w = model.next();
      s.flops.push_back(model.price(TileRanks{m}));
      rule.offer(w, s.flops.back());
    }
    return rule.done() ? rule.pick() : 0;
  };
  tlr::TlrMatrix m = tlr::TlrMatrix::from_problem_outside_in(
      prob, tile_size, acc, nthreads, pick);
  s.band_size = m.band_size();
  if (scan != nullptr) *scan = std::move(s);
  return m;
}

}  // namespace ptlr::core
