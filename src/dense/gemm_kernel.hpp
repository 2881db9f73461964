// Internal interface of the blocked, packed GEMM engine.
//
// The engine follows the BLIS/GotoBLAS decomposition: a five-loop nest over
// (NC, KC, MC) cache blocks with contiguous packing of the A- and B-panels,
// and an MR x NR register microkernel at the bottom. Packing absorbs all
// four Trans cases, so transposed operands never pay a strided inner loop.
// See docs/performance.md for the parameter derivation and tuning notes.
//
// Everything here computes the *accumulation* form
//     C += alpha * op(A) * op(B)
// (no beta, no dimension checks, no flop accounting) — the public BLAS
// entry points in blas.cpp own validation, beta-scaling and the flop
// counter, and both SYRK/TRSM delegate their O(n^3) volume here without
// double-charging flops.
#pragma once

#include "dense/blas.hpp"
#include "dense/matrix.hpp"

namespace ptlr::dense::detail {

// Register microkernel footprint, fixed by the ISA the dense sources compile
// for: kNR columns of kMR / kVecLen vectors each, B elements broadcast from
// memory.
//   AVX-512 (32 zmm): 16 x 8 -> 16 accumulators, enough independent FMA
//     chains to keep both FMA ports busy, plus 2 A vectors.
//   Other ISAs: 8 x 6 -> 6 accumulators (12 of 16 ymm on AVX2).
// The footprint never changes a result bit: each element of C sums the same
// alpha-folded packed products in the same k order in any microtile, edge or
// interior. Only sources compiled with the dense native-ISA flag
// (CMakeLists.txt) include this header, so packing and microkernel agree on
// one footprint.
inline constexpr int kVecLen = 8;
#ifdef __AVX512F__
inline constexpr int kMR = 16;
inline constexpr int kNR = 8;
#else
inline constexpr int kMR = 8;
inline constexpr int kNR = 6;
#endif
static_assert(kMR % kVecLen == 0, "microtile columns are whole vectors");

// kVecLen doubles spelled with GNU vector extensions: one zmm on AVX-512,
// two ymm halves on AVX2. Used by the GEMM microkernel, the TRSM leaf and
// the Householder apply (qr.cpp) to pin vectorization to the row axis.
using vec_d = double __attribute__((vector_size(kVecLen * sizeof(double))));

// Cache blocks: an MR x KC sliver of packed A plus a KC x NR sliver of packed
// B stay in L1 (16*256*8B = 32 KiB plus 8*256*8B = 16 KiB fill a 48 KiB L1d
// at 16 x 8; 16 + 12 KiB at 8 x 6); the MC x KC packed A block stays in L2
// (256*256*8B = 512 KiB of 2 MiB); the KC x NC packed B block streams from
// L3.
inline constexpr int kMC = 256;
inline constexpr int kKC = 256;
inline constexpr int kNC = 2048;

// Outer block size used by the blocked SYRK/TRSM/POTRF wrappers: diagonal
// (triangular) blocks of this size run the unblocked kernels
// (dense/unblocked.hpp), everything else is GEMM volume.
inline constexpr int kOuterNB = 64;

// Nested child-task decomposition thresholds (docs/performance.md). The
// level-3 entry points cut their output into per-child chunks and spawn
// them through rt::TaskGroup when running inside a ws-engine task. Every
// chunk keeps at least kNestedMinChunk rows/columns so each child's size
// rule (worth_blocking, blocked_l3), the only selector between the blocked
// and unblocked kernels, takes the branch the undivided call would — that
// branch-stability is what
// keeps chunked results bitwise identical to the serial evaluation; see
// the proofs next to each use. kNestedMinVolume (64^3 fused multiply-adds,
// tens of microseconds of work) keeps spawn overhead invisible, and
// kNestedMaxChunks bounds fragmentation: with 2 cores, 8 chunks already
// caps the tail imbalance at 1/8 of the call.
inline constexpr int kNestedMinChunk = 64;
inline constexpr double kNestedMinVolume = 64.0 * 64.0 * 64.0;
inline constexpr int kNestedMaxChunks = 8;

/// Restrict a blocked update to the lower triangle of C (diagonal
/// included). Microtiles fully above it are skipped before they compute;
/// straddling microtiles mask the write-back elementwise. This is how SYRK
/// rides the GEMM engine at full speed with a single packing pass.
enum class TriMask { kNone, kLower };

/// Blocked, packed path: C += alpha * op(A) * op(B). Any m/n/k, any ld.
void gemm_blocked(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                  ConstMatrixView b, MatrixView c,
                  TriMask mask = TriMask::kNone);

/// Dispatch helper used by gemm/syrk/trsm bodies: gemm_blocked when
/// worth_blocking, else gemm_unblocked (dense/unblocked.hpp).
void gemm_body(Trans ta, Trans tb, double alpha, ConstMatrixView a,
               ConstMatrixView b, MatrixView c);

/// Pack an mc x kc block of op(A) (alpha folded in) starting at row i0 /
/// depth p0 into MR-row micro-panels, zero-padded to a multiple of kMR.
/// Layout: panel q (rows [q*kMR, q*kMR+kMR)) occupies buf[q*kc*kMR ...],
/// within a panel element (i, p) sits at p*kMR + i.
void pack_a(Trans ta, double alpha, ConstMatrixView a, int i0, int p0,
            int mc, int kc, double* buf);

/// Pack a kc x nc block of op(B) starting at depth p0 / column j0 into
/// NR-column micro-panels, zero-padded to a multiple of kNR.
/// Layout: panel q (cols [q*kNR, q*kNR+kNR)) occupies buf[q*kc*kNR ...],
/// within a panel element (p, j) sits at p*kNR + j.
void pack_b(Trans tb, ConstMatrixView b, int p0, int j0, int kc, int nc,
            double* buf);

/// True when (m, n, k) is worth the packing overhead.
bool worth_blocking(int m, int n, int k);

}  // namespace ptlr::dense::detail
