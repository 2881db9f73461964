// HCORE tile kernels: the ten "(region)-kernel" variants of Section VI.
//
// Each entry point dispatches on the operand tile formats to one of the
// Table I kernels and returns which one ran (for tracing and flop-model
// validation). Within the BAND-DENSE-TLR Cholesky at step k:
//
//   potrf:  A[k][k]  = chol(A[k][k])                       (1)-POTRF
//   trsm:   A[m][k] := A[m][k] · L[k][k]^-T                (1)/(4)-TRSM
//   syrk:   A[m][m] -= A[m][k] · A[m][k]^T                 (1)/(3)-SYRK
//   gemm:   A[m][n] -= A[m][k] · A[n][k]^T                 (1)/(2)/(3)/(5)/(6)-GEMM
//
// Format legality follows from the band structure (tile (i,j) is dense iff
// i-j < BAND_SIZE): for a GEMM with k < n < m, a dense A[m][k] forces
// A[n][k] and A[m][n] dense, and a low-rank C admits only a low-rank
// A[m][k]. Illegal combinations throw.
//
// A low-rank tile is not recompressed after each update (as in
// H2OPUS-TLR, the sum of its updates is compressed once). Its first update
// expands it into a dense accumulator, every update of step k subtracts its
// product there as soon as the step-k panel tiles are final ((1)/(2)/(3)-
// GEMM), and only the last one, at step n-1, compresses the accumulated
// tile back to U·Vᵀ ((5)/(6)-GEMM). The per-update work thus stays off the
// critical path, which carries one compression per tile.
#pragma once

#include "common/flops.hpp"
#include "compress/compress.hpp"
#include "tlr/tile.hpp"

namespace ptlr::hcore {

using compress::Accuracy;
using tlr::Tile;

/// Cholesky of a dense diagonal tile ((1)-POTRF). Throws NumericalError if
/// the tile is not SPD, ptlr::Error if it is not dense.
flops::Kernel potrf(Tile& akk);

/// Triangular solve of the panel tile against the factored diagonal:
/// A[m][k] := A[m][k] · L^-T. Dense → (1)-TRSM, low-rank → (4)-TRSM (only
/// the V factor is touched).
flops::Kernel trsm(const Tile& akk, Tile& amk);

/// Symmetric update of a dense diagonal tile: A[m][m] -= A[m][k]·A[m][k]^T.
/// Dense A[m][k] → (1)-SYRK, low-rank → (3)-SYRK.
flops::Kernel syrk(const Tile& amk, Tile& amm);

/// Trailing update A[m][n] -= A[m][k] · A[n][k]^T, all five Table I GEMM
/// flavors. A dense A[m][n] that `round` does not mark is a plain dense-
/// output (1)/(2)/(3)-GEMM. A low-rank A[m][n] is first expanded into a
/// dense accumulator. With `round` set — the tile's last update — the
/// accumulated tile is then compressed once at `acc` by compress::compress
/// ((5)-GEMM if an operand is dense, else (6)-GEMM; the
/// span reports rank_in = min(m, n), the dense block's rank bound, and the
/// rank it rounded to). A rank past acc.maxrank, or past
/// acc.densify_ratio · min(m, n), keeps the exact sum dense; so does a
/// last update whose operands are both dense (densification on demand,
/// (1)-GEMM).
flops::Kernel gemm(const Tile& amk, const Tile& ank, Tile& amn,
                   const Accuracy& acc, bool round);

/// One complete update: a low-rank A[m][n] is updated and rounded at once
/// (round = amn.is_lowrank()).
flops::Kernel gemm(const Tile& amk, const Tile& ank, Tile& amn,
                   const Accuracy& acc);

/// Table I model flops for the kernel that `gemm` would select for these
/// operand formats (b = tile size, k = max operand rank). Used by the
/// BAND_SIZE auto-tuner's performance model (Algorithm 1).
double gemm_model_flops(bool a_dense, bool b_dense, bool c_dense,
                        std::int64_t b, std::int64_t k);

}  // namespace ptlr::hcore
