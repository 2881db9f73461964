// Unblocked level-3 kernels: the loops the public entry points of
// dense/blas.hpp and dense/lapack.hpp run below their blocking cutoff and
// at the leaves of the recursive TRSM and POTRF, declared here so tests
// and bench_dense_kernels can call them by name as the reference.
//
// They compute the update alone: no beta or alpha scaling of the
// right-hand side, no dimension checks and no flop accounting, which the
// public entry points own. This header carries no ISA-dependent constant,
// so any translation unit may include it.
#pragma once

#include "dense/blas.hpp"
#include "dense/matrix.hpp"

namespace ptlr::dense {

/// C += alpha * op(A) * op(B): gaxpy loops for op(A) = A, dot loops for
/// op(A) = A^T.
void gemm_unblocked(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                    ConstMatrixView b, MatrixView c);

/// C += alpha * A * A^T on the lower triangle of C.
void syrk_unblocked(double alpha, ConstMatrixView a, MatrixView c);

/// Substitution for lower-triangular A: op(A) * X = B (Side::Left) or
/// X * A^T = B (Side::Right, `ta` must be Trans::T); X overwrites B.
void trsm_unblocked(Side side, Trans ta, ConstMatrixView a, MatrixView b);

/// Unblocked lower Cholesky (reference DPOTF2) of the square `a`. Throws
/// NumericalError with the 1-based pivot index, offset by `base` (the row
/// of `a` in the matrix the caller factors), if `a` is not SPD.
void potf2(MatrixView a, int base = 0);

}  // namespace ptlr::dense
