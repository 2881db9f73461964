// Floating-point operation accounting.
//
// The paper's BAND_SIZE auto-tuner (Algorithm 1), Fig. 6 and Fig. 10 are all
// driven by flop models of the tile kernels (Table I). This header provides
//   (1) the Table I closed-form complexities, and
//   (2) a thread-safe counter that kernels charge at execution time so that
//       model flops can be validated against measured flops in tests.
#pragma once

#include <atomic>
#include <cstdint>

namespace ptlr::flops {

/// Kernel identifiers matching Table I of the paper ("(region)-kernel").
enum class Kernel : int {
  kPotrf1 = 0,  ///< (1)-POTRF  dense Cholesky of a diagonal tile
  kTrsm1 = 1,   ///< (1)-TRSM   dense triangular solve
  kTrsm4 = 2,   ///< (4)-TRSM   low-rank triangular solve
  kSyrk1 = 3,   ///< (1)-SYRK   dense symmetric rank-k update
  kSyrk3 = 4,   ///< (3)-SYRK   low-rank symmetric rank-k update
  kGemm1 = 5,   ///< (1)-GEMM   dense GEMM
  kGemm2 = 6,   ///< (2)-GEMM   dense C -= one dense, one low-rank operand
  kGemm3 = 7,   ///< (3)-GEMM   dense C -= A_lr * B_lr^T
  kGemm5 = 8,   ///< (5)-GEMM   LR C -= one dense, one low-rank operand
  kGemm6 = 9,   ///< (6)-GEMM   LR C -= A_lr * B_lr^T (HCORE_DGEMM)
};

/// Number of kernel kinds in Table I.
inline constexpr int kNumKernels = 10;

/// Table I closed-form flop count for kernel `k` on tile size `b` with
/// operand rank `rank` (ignored by the dense kernels).
double model(Kernel k, std::int64_t b, std::int64_t rank) noexcept;

/// True for the dense region-(1) kernels (POTRF, TRSM, SYRK, GEMM), the
/// class the simulator runs at the dense rate and on accelerators.
bool is_dense_class(Kernel k) noexcept;

/// Dense GEMM model: 2*m*n*k flops for C(m,n) += A(m,k)*B(k,n).
inline double gemm(std::int64_t m, std::int64_t n, std::int64_t k) noexcept {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

/// Dense POTRF model: n^3/3.
inline double potrf(std::int64_t n) noexcept {
  const double d = static_cast<double>(n);
  return d * d * d / 3.0;
}

/// Dense TRSM model: m*m*n for a m-by-m triangle applied to m-by-n RHS.
inline double trsm(std::int64_t m, std::int64_t n) noexcept {
  return static_cast<double>(m) * static_cast<double>(m) *
         static_cast<double>(n);
}

/// Dense SYRK model: n^2*k for C(n,n) += A(n,k)*A^T.
inline double syrk(std::int64_t n, std::int64_t k) noexcept {
  return static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(k);
}

/// Process-wide measured flop counter. Kernels call add() with the flops
/// they actually performed; harnesses snapshot and reset around regions.
///
/// Besides the global total, every add() also feeds a per-thread double
/// accumulator. The observability layer (src/obs) resets it at task start
/// and reads it at task end, attributing the charges of one task body to
/// its kernel class *exactly*: within a task the accumulator starts at
/// zero, so the small-magnitude double sums (including the +x/-x
/// correction pairs of the recursive dense kernels) incur no rounding and
/// the per-task value is bitwise the closed-form model for the dense
/// kernels. The global int64 total is unchanged for back-compat.
class Counter {
 public:
  /// Charge `f` flops to the global counter and the thread accumulator.
  static void add(double f) noexcept {
    total_.fetch_add(static_cast<std::int64_t>(f),
                     std::memory_order_relaxed);
    tl_flops_ += f;
  }

  /// Current total since the last reset().
  static double total() noexcept {
    return static_cast<double>(total_.load(std::memory_order_relaxed));
  }

  /// Zero the counter.
  static void reset() noexcept {
    total_.store(0, std::memory_order_relaxed);
  }

  /// Flops charged by this thread since reset_thread_flops(), summed in
  /// double precision (no int64 truncation).
  static double thread_flops() noexcept { return tl_flops_; }

  /// Zero this thread's accumulator (called at task_begin).
  static void reset_thread_flops() noexcept { tl_flops_ = 0.0; }

 private:
  static std::atomic<std::int64_t> total_;
  static thread_local double tl_flops_;
};

/// RAII region: captures the counter delta across its lifetime.
class Region {
 public:
  Region() : start_(Counter::total()) {}
  /// Flops charged since construction.
  [[nodiscard]] double flops() const { return Counter::total() - start_; }

 private:
  double start_;
};

}  // namespace ptlr::flops
