#include "core/band_tuner.hpp"

#include <algorithm>
#include <limits>

#include "core/task_costs.hpp"

namespace ptlr::core {

namespace {

// The TRSM and GEMMs writing sub-diagonal d (the Fig. 6c marginal).
double writing(const TaskCosts<RankMap>& c, int nt, int d) {
  double f = 0.0;
  for (int i = d; i < nt; ++i) {
    const int j = i - d;
    f += c.trsm(i, j).flops;
    for (int k = 0; k < j; ++k) f += c.gemm(i, j, k).flops;
  }
  return f;
}

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
      f += c.potrf().flops;
      for (int k = 0; k < i; ++k) f += c.syrk(i, k).flops;
    }
    for (int i = 1; i < nt_; ++i)
      for (int j = 0; j < i; ++j) {
        f += c.trsm(i, j).flops;
        for (int k = 0; k < j; ++k) f += c.gemm(i, j, k).flops;
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
      f += lo.syrk(p, q).flops - hi.syrk(p, q).flops;
      f += lo.trsm(p, q).flops - hi.trsm(p, q).flops;
      for (int k = 0; k < q; ++k)
        f += lo.gemm(p, q, k).flops - hi.gemm(p, q, k).flops;
      for (int j = q + 1; j < p; ++j)
        f += lo.gemm(p, j, q).flops - hi.gemm(p, j, q).flops;
      for (int i = p + 1; i < nt_; ++i)
        if (i - p != w) f += lo.gemm(i, p, q).flops - hi.gemm(i, p, q).flops;
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
          writing(TaskCosts<RankMap>(ranks, b, d + 1), nt, d);
    if (d <= wmax)
      out.tlr_subdiag[static_cast<std::size_t>(d)] =
          writing(TaskCosts<RankMap>(ranks, b, d), nt, d);
  }
  return out;
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
