// Blocked, packed GEMM engine: macro-kernel loop nest and register
// microkernel (layout and parameter rationale in gemm_kernel.hpp and
// docs/performance.md).
#include "dense/gemm_kernel.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "dense/unblocked.hpp"
#include "runtime/nested.hpp"

namespace ptlr::dense::detail {

namespace {

// MR x NR register microkernel: acc = sum_p apanel(:, p) * bpanel(p, :)
// over the packed panels, then C(0:mr, 0:nr) += acc. Panels are
// zero-padded, so the hot loop is always full-width; mr/nr only mask the
// write-back.
//
// The accumulators are kMV = kMR / kVecLen vectors per microtile column,
// each updated with a broadcast multiply-add per packed B element. This pins
// the vectorization axis to the M dimension (kNR * kMV accumulators + kMV A
// vectors stay resident in the register file); left to its own devices GCC
// vectorizes the scalar form across the N axis and drowns the FMAs in
// cross-lane shuffles. Every lane runs the same multiply-add chain over p,
// so the footprint never enters a result.
void micro_kernel(int kc, const double* __restrict__ ap,
                  const double* __restrict__ bp, double* __restrict__ c,
                  int ldc, int mr, int nr) {
  constexpr int kMV = kMR / kVecLen;
  vec_d acc[kNR][kMV] = {};
  for (int p = 0; p < kc; ++p) {
    const double* __restrict__ arow = ap + static_cast<std::size_t>(p) * kMR;
    vec_d av[kMV];
    for (int v = 0; v < kMV; ++v)
      __builtin_memcpy(&av[v], arow + v * kVecLen, sizeof(vec_d));
    const double* __restrict__ brow = bp + static_cast<std::size_t>(p) * kNR;
    for (int j = 0; j < kNR; ++j)
      for (int v = 0; v < kMV; ++v) acc[j][v] += av[v] * brow[j];
  }
  if (mr == kMR && nr == kNR) {
    for (int j = 0; j < kNR; ++j) {
      double* cj = c + static_cast<std::size_t>(j) * ldc;
      for (int v = 0; v < kMV; ++v) {
        vec_d cv;
        __builtin_memcpy(&cv, cj + v * kVecLen, sizeof cv);
        cv += acc[j][v];
        __builtin_memcpy(cj + v * kVecLen, &cv, sizeof cv);
      }
    }
  } else {
    for (int j = 0; j < nr; ++j) {
      double* cj = c + static_cast<std::size_t>(j) * ldc;
      for (int i = 0; i < mr; ++i) cj[i] += acc[j][i / kVecLen][i % kVecLen];
    }
  }
}

// Reusable per-thread packing workspace. Sized once to the largest block
// (kMC/kNC rounded up to full micro-panels), so task-parallel tile updates
// stop allocating per GEMM call after their first. Left uninitialized: the
// packing routines write every element the microkernel reads, zero padding
// included, so a thread makes resident only the pages its blocks pack
// (~0.25 MB for a 128-tile, not the full 4.7 MB). Each buffer has one
// cache line of slack so gemm_blocked can start its panels on a line
// boundary: the microkernel's vector loads of packed A then never straddle
// two lines (a large allocation otherwise sits 16 bytes past a page).
constexpr std::size_t kLineBytes = 64;
constexpr std::size_t kLineDoubles = kLineBytes / sizeof(double);

struct PackBuffers {
  std::unique_ptr<double[]> a, b;
};

PackBuffers& pack_buffers() {
  constexpr int mc_round = (kMC + kMR - 1) / kMR * kMR;
  constexpr int nc_round = (kNC + kNR - 1) / kNR * kNR;
  thread_local PackBuffers bufs{
      std::make_unique_for_overwrite<double[]>(
          static_cast<std::size_t>(mc_round) * kKC + kLineDoubles),
      std::make_unique_for_overwrite<double[]>(
          static_cast<std::size_t>(nc_round) * kKC + kLineDoubles)};
  return bufs;
}

double* line_aligned(double* p) {
  const std::size_t off = reinterpret_cast<std::uintptr_t>(p) % kLineBytes;
  return off == 0 ? p : p + (kLineBytes - off) / sizeof(double);
}

}  // namespace

void gemm_blocked(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                  ConstMatrixView b, MatrixView c, TriMask mask) {
  const int m = c.rows(), n = c.cols();
  const int k = ta == Trans::N ? a.cols() : a.rows();
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  PackBuffers& bufs = pack_buffers();
  double* apack = line_aligned(bufs.a.get());
  double* bpack = line_aligned(bufs.b.get());
  const int ldc = c.ld();

  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = n - jc < kNC ? n - jc : kNC;
    for (int pc = 0; pc < k; pc += kKC) {
      const int kc = k - pc < kKC ? k - pc : kKC;
      pack_b(tb, b, pc, jc, kc, nc, bpack);
      for (int ic = 0; ic < m; ic += kMC) {
        const int mc = m - ic < kMC ? m - ic : kMC;
        // A cache-block fully above the diagonal never packs.
        if (mask == TriMask::kLower && jc > ic + mc - 1) continue;
        pack_a(ta, alpha, a, ic, pc, mc, kc, apack);
        for (int jr = 0; jr < nc; jr += kNR) {
          const int nr = nc - jr < kNR ? nc - jr : kNR;
          const double* bp =
              bpack + static_cast<std::size_t>(jr / kNR) * kc * kNR;
          for (int ir = 0; ir < mc; ir += kMR) {
            const int mr = mc - ir < kMR ? mc - ir : kMR;
            const int r0 = ic + ir, c0 = jc + jr;
            if (mask == TriMask::kLower && c0 > r0 + mr - 1) continue;
            const double* ap =
                apack + static_cast<std::size_t>(ir / kMR) * kc * kMR;
            // Straddling microtiles land in a scratch tile and copy the
            // in-triangle lanes; interior tiles write C directly.
            const bool straddle = mask == TriMask::kLower && c0 + nr - 1 > r0;
            if (!straddle) {
              micro_kernel(kc, ap, bp, c.col(c0) + r0, ldc, mr, nr);
            } else {
              double tile[kMR * kNR] = {};
              micro_kernel(kc, ap, bp, tile, kMR, mr, nr);
              for (int j = 0; j < nr; ++j) {
                double* cj = c.col(c0 + j) + r0;
                for (int i = 0; i < mr; ++i)
                  if (r0 + i >= c0 + j) cj[i] += tile[j * kMR + i];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace ptlr::dense::detail

namespace ptlr::dense {

void gemm_unblocked(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                    ConstMatrixView b, MatrixView c) {
  const int m = c.rows(), n = c.cols();
  const int k = ta == Trans::N ? a.cols() : a.rows();
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  // The seed's unit-stride loop forms. Deliberately no `w == 0` shortcuts:
  // reference BLAS computes 0 * NaN = NaN, and so do we.
  if (ta == Trans::N && tb == Trans::N) {
    // Gaxpy form: C(:,j) += alpha * A(:,p) * B(p,j).
    for (int j = 0; j < n; ++j) {
      double* cj = c.col(j);
      const double* bj = b.col(j);
      for (int p = 0; p < k; ++p) {
        const double w = alpha * bj[p];
        const double* ap = a.col(p);
        for (int i = 0; i < m; ++i) cj[i] += w * ap[i];
      }
    }
  } else if (ta == Trans::N && tb == Trans::T) {
    // C(:,j) += alpha * A(:,p) * B(j,p).
    for (int j = 0; j < n; ++j) {
      double* cj = c.col(j);
      for (int p = 0; p < k; ++p) {
        const double w = alpha * b(j, p);
        const double* ap = a.col(p);
        for (int i = 0; i < m; ++i) cj[i] += w * ap[i];
      }
    }
  } else if (ta == Trans::T && tb == Trans::N) {
    // C(i,j) += alpha * dot(A(:,i), B(:,j)); both unit stride.
    for (int j = 0; j < n; ++j) {
      double* cj = c.col(j);
      const double* bj = b.col(j);
      for (int i = 0; i < m; ++i) {
        cj[i] += alpha * dot(k, a.col(i), bj);
      }
    }
  } else {  // T, T
    // C(i,j) += alpha * sum_p A(p,i) * B(j,p).
    for (int j = 0; j < n; ++j) {
      double* cj = c.col(j);
      for (int i = 0; i < m; ++i) {
        const double* ai = a.col(i);
        double s = 0.0;
        for (int p = 0; p < k; ++p) s += ai[p] * b(j, p);
        cj[i] += alpha * s;
      }
    }
  }
}

}  // namespace ptlr::dense

namespace ptlr::dense::detail {

bool worth_blocking(int m, int n, int k) {
  // Packing moves O(m*k + k*n) bytes to save O(m*n*k) strided accesses;
  // below ~32^3 of volume the naive unit-stride loops win.
  return static_cast<double>(m) * n * k >= 32.0 * 32.0 * 32.0;
}

void gemm_body(Trans ta, Trans tb, double alpha, ConstMatrixView a,
               ConstMatrixView b, MatrixView c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta == Trans::N ? a.cols() : a.rows();
  if (!worth_blocking(m, n, k)) {
    gemm_unblocked(ta, tb, alpha, a, b, c);
    return;
  }
  if (rt::nested_available() && m >= 2 * kNestedMinChunk &&
      static_cast<double>(m) * n * k >= kNestedMinVolume) {
    // Child tasks over row-chunks of C. Bitwise-safe: each element of C
    // is beta-independent here (the entry point already scaled), equals
    // its packed-alpha microkernel sum over the *k* partition, and the
    // engine's m-blocking boundaries never change a per-element sum — a
    // chunk boundary is just another MC boundary. Pack buffers are
    // thread_local, so concurrent children never share scratch.
    const int nchunks = std::min(m / kNestedMinChunk, kNestedMaxChunks);
    rt::TaskGroup tg;
    for (int t = 0; t < nchunks; ++t) {
      const int r0 = static_cast<int>(
          static_cast<long long>(m) * t / nchunks);
      const int r1 = static_cast<int>(
          static_cast<long long>(m) * (t + 1) / nchunks);
      const ConstMatrixView ai = ta == Trans::N
                                     ? a.block(r0, 0, r1 - r0, k)
                                     : a.block(0, r0, k, r1 - r0);
      const MatrixView ci = c.block(r0, 0, r1 - r0, n);
      tg.spawn([ta, tb, alpha, ai, b, ci] {
        gemm_blocked(ta, tb, alpha, ai, b, ci);
      });
    }
    tg.sync();
    return;
  }
  gemm_blocked(ta, tb, alpha, a, b, c);
}

}  // namespace ptlr::dense::detail
