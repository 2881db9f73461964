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
//
// The *_kind functions below are the one map from operand formats to the
// Table I kernel a task runs, and the entry points return their kind
// through them. The *_cost functions add the rank it runs at and the flops
// Algorithm 1 charges for it: the BAND_SIZE tuner and the task graph price
// every task through them (core/task_costs.hpp).
#pragma once

#include <algorithm>

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

// ---- the Table I task model (inline: Algorithm 1 prices O(NT³) tasks) --

/// The Table I kernel trsm() runs on a dense or a low-rank A[m][k].
inline flops::Kernel trsm_kind(bool a_dense) {
  return a_dense ? flops::Kernel::kTrsm1 : flops::Kernel::kTrsm4;
}

/// The Table I kernel syrk() runs on a dense or a low-rank A[m][k].
inline flops::Kernel syrk_kind(bool a_dense) {
  return a_dense ? flops::Kernel::kSyrk1 : flops::Kernel::kSyrk3;
}

/// The Table I kernel gemm() runs: (1)-GEMM when A and B are both dense,
/// else the dense-output (2)/(3)-GEMM, or with `round` the compressing
/// (5)/(6)-GEMM (one operand dense → (2)/(5), none → (3)/(6)).
inline flops::Kernel gemm_kind(bool a_dense, bool b_dense, bool round) {
  using K = flops::Kernel;
  if (a_dense && b_dense) return K::kGemm1;
  if (round) return a_dense || b_dense ? K::kGemm5 : K::kGemm6;
  return a_dense || b_dense ? K::kGemm2 : K::kGemm3;
}

/// A task operand's format: dense, or low-rank of rank `rank`.
struct Operand {
  bool dense = true;
  int rank = 0;  ///< ignored when dense
};

/// One tile task in Algorithm 1's performance model.
struct TaskCost {
  flops::Kernel kernel;   ///< the Table I kernel the entry point runs
  flops::Kernel charged;  ///< the Table I entry Algorithm 1 charges for it
  int rank;               ///< the operand rank both are priced at
  double flops;           ///< `charged` at tile size b and `rank`
};

/// (1)-POTRF of a b-tile.
inline TaskCost potrf_cost(int b) {
  const flops::Kernel k = flops::Kernel::kPotrf1;
  return {k, k, 0, flops::model(k, b, 0)};
}

/// TRSM on A[m][k]; a dense A runs at rank 0.
inline TaskCost trsm_cost(Operand a, int b) {
  const flops::Kernel k = trsm_kind(a.dense);
  const int r = a.dense ? 0 : a.rank;
  return {k, k, r, flops::model(k, b, r)};
}

/// SYRK reading A[m][k]; a dense A runs at rank 0.
inline TaskCost syrk_cost(Operand a, int b) {
  const flops::Kernel k = syrk_kind(a.dense);
  const int r = a.dense ? 0 : a.rank;
  return {k, k, r, flops::model(k, b, r)};
}

/// GEMM C -= A·Bᵀ. `last` marks C's last update, the one that compresses a
/// low-rank C. The rank is the largest low-rank operand's, floored at 1.
/// Every update of a low-rank C is charged its Table I (5)/(6) entry, as if
/// each recompressed, though only the last one does: that is the flop model
/// Algorithm 1 picks BAND_SIZE by.
inline TaskCost gemm_cost(Operand a, Operand bt, Operand c, bool last,
                          int b) {
  int r = 1;
  if (!a.dense) r = std::max(r, a.rank);
  if (!bt.dense) r = std::max(r, bt.rank);
  if (!c.dense) r = std::max(r, c.rank);
  const flops::Kernel k = gemm_kind(a.dense, bt.dense, !c.dense && last);
  const flops::Kernel charged =
      c.dense ? k
              : (a.dense || bt.dense ? flops::Kernel::kGemm5
                                     : flops::Kernel::kGemm6);
  return {k, charged, r, flops::model(charged, b, r)};
}

}  // namespace ptlr::hcore
