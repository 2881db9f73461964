// Level-2/3 BLAS subset used by PTLR tile kernels.
//
// Semantics follow the reference BLAS (column-major). These replace the MKL
// the paper ran on; all kernels charge their true flop count to
// ptlr::flops::Counter so model-vs-measured comparisons in the auto-tuner
// tests are exact.
//
// Only the variants the lower-triangular Cholesky and its solves use are
// implemented: TRSM Left/Lower/N, Left/Lower/T and Right/Lower/T, and SYRK
// Lower/N, all with a non-unit diagonal. The signatures keep the BLAS
// shape; a call with another combination throws ptlr::Error naming it.
// Each level-3 call picks its implementation by problem size alone (the
// blocked, packed engine above a cutoff, the unblocked loops of
// dense/unblocked.hpp below it).
#pragma once

#include "dense/matrix.hpp"

namespace ptlr::dense {

/// Transposition selector for GEMM operands.
enum class Trans { N, T };
/// Which triangle of a symmetric/triangular matrix is referenced.
enum class Uplo { Lower };
/// Side of the triangular operand in TRSM.
enum class Side { Left, Right };
/// The triangular operand's diagonal is read (no implicit unit diagonal).
enum class Diag { NonUnit };

/// C = alpha * op(A) * op(B) + beta * C.
void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);

/// C = alpha * A * A^T + beta * C on the lower triangle of C; the strict
/// upper triangle is not referenced. `ta` must be Trans::N.
void syrk(Uplo uplo, Trans ta, double alpha, ConstMatrixView a, double beta,
          MatrixView c);

/// Solve op(A) * X = alpha * B (Side::Left) or X * op(A) = alpha * B
/// (Side::Right) for lower-triangular A; X overwrites B. Side::Right needs
/// `ta` == Trans::T.
void trsm(Side side, Uplo uplo, Trans ta, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b);

/// y = alpha * op(A) * x + beta * y.
void gemv(Trans ta, double alpha, ConstMatrixView a, const double* x,
          double beta, double* y);

/// Dot product of length-n vectors.
double dot(int n, const double* x, const double* y);

/// y += alpha * x for length-n vectors.
void axpy(int n, double alpha, const double* x, double* y);

/// Scale a length-n vector.
void scal(int n, double alpha, double* x);

/// Euclidean norm of a length-n vector.
double nrm2(int n, const double* x);

}  // namespace ptlr::dense
