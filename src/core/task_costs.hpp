// The one per-task pricer of the BAND-DENSE-TLR Cholesky: a task's operand
// formats and ranks under band W, priced by hcore's Table I task model
// (hcore/kernels.hpp). The BAND_SIZE tuner's F(W) sums these charges, and
// the task-graph builder takes every task's kind, device class, modelled
// duration and GraphStats charge from them, so "charge what runs" is an
// edit to hcore::gemm_cost alone.
#pragma once

#include "hcore/kernels.hpp"

namespace ptlr::core {

/// `Ranks` is a RankMap or a matrix under construction: anything with
/// is_dense(i, j) and rank(i, j). A tile with i-j < W is dense and is not
/// read; outside the band a tile is dense only where the source says so
/// (a rank past the cap, or a tile densified on demand).
template <class Ranks>
class TaskCosts {
 public:
  TaskCosts(const Ranks& r, int b, int w) : r_(r), b_(b), w_(w) {}

  /// POTRF of diagonal tile (k, k).
  [[nodiscard]] hcore::TaskCost potrf() const {
    return hcore::potrf_cost(b_);
  }
  /// TRSM writing (i, j).
  [[nodiscard]] hcore::TaskCost trsm(int i, int j) const {
    return hcore::trsm_cost(operand(i, j), b_);
  }
  /// SYRK of step k on diagonal tile (i, i), reading (i, k).
  [[nodiscard]] hcore::TaskCost syrk(int i, int k) const {
    return hcore::syrk_cost(operand(i, k), b_);
  }
  /// GEMM of step k writing (i, j), reading (i, k) and (j, k); the one at
  /// step j-1 is the tile's last update.
  [[nodiscard]] hcore::TaskCost gemm(int i, int j, int k) const {
    return hcore::gemm_cost(operand(i, k), operand(j, k), operand(i, j),
                            k == j - 1, b_);
  }

 private:
  [[nodiscard]] hcore::Operand operand(int i, int j) const {
    if (i - j < w_ || r_.is_dense(i, j)) return {};
    return {false, r_.rank(i, j)};
  }

  const Ranks& r_;
  int b_, w_;
};

}  // namespace ptlr::core
