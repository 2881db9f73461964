// Kernel execution-time model for the virtual-cluster simulator.
//
// time(kernel) = TableI_flops(kernel) / rate(class), with two rate classes
// reflecting Fig. 2a: dense Level-3 BLAS kernels run near the core's
// compute-bound rate, TLR kernels at roughly a third of it (the measured
// gap between dense GEMM and recompression-dominated TLR GEMM).
// Rates can be calibrated by micro-benchmarking the real kernels on the
// host so simulated seconds track the machine the repo runs on.
#pragma once

#include "common/flops.hpp"

namespace ptlr::core {

/// Sustained per-core execution rates (flops/s) for the two kernel classes.
struct KernelRates {
  double dense_rate = 1.5e9;  ///< dense POTRF/TRSM/SYRK/GEMM
  double lr_rate = 5e8;       ///< low-rank kernels (≈ dense/3, Fig. 2a)

  /// Micro-benchmark the real kernels at tile size `b`, rank `k`.
  static KernelRates calibrate(int b = 256, int k = 32);
};

/// Maps Table I kernels to modelled durations.
class CostModel {
 public:
  explicit CostModel(KernelRates rates) : rates_(rates) {}

  /// Modelled execution seconds of `kernel` on a b-tile with operand rank k.
  [[nodiscard]] double duration(flops::Kernel kernel, int b, int k) const;

  /// Duration from an explicit flop count and kernel class.
  [[nodiscard]] double duration_flops(double flop_count,
                                      bool dense_class) const {
    return flop_count / (dense_class ? rates_.dense_rate : rates_.lr_rate);
  }

  [[nodiscard]] const KernelRates& rates() const { return rates_; }

 private:
  KernelRates rates_;
};

}  // namespace ptlr::core
