#include "common/flops.hpp"

namespace ptlr::flops {

std::atomic<std::int64_t> Counter::total_{0};
thread_local double Counter::tl_flops_ = 0.0;

double model(Kernel kernel, std::int64_t b_, std::int64_t rank_) noexcept {
  const double b = static_cast<double>(b_);
  const double k = static_cast<double>(rank_);
  switch (kernel) {
    // Table I of the paper, in the same order.
    case Kernel::kPotrf1:
      return b * b * b / 3.0;
    case Kernel::kTrsm1:
      return b * b * b;
    case Kernel::kTrsm4:
      return b * b * k;
    case Kernel::kSyrk1:
      return b * b * b;
    case Kernel::kSyrk3:
      return 2.0 * b * b * k + 4.0 * b * k * k;
    case Kernel::kGemm1:
      return 2.0 * b * b * b;
    case Kernel::kGemm2:
      return 4.0 * b * b * k;
    case Kernel::kGemm3:
      return 2.0 * b * b * k + 4.0 * b * k * k;
    case Kernel::kGemm5:
      return 34.0 * b * k * k + 157.0 * k * k * k;
    case Kernel::kGemm6:
      return 36.0 * b * k * k + 157.0 * k * k * k;
  }
  return 0.0;
}

bool is_dense_class(Kernel k) noexcept {
  return k == Kernel::kPotrf1 || k == Kernel::kTrsm1 || k == Kernel::kSyrk1 ||
         k == Kernel::kGemm1;
}

}  // namespace ptlr::flops
