// Level-2/3 BLAS subset used by PTLR tile kernels.
//
// Semantics follow the reference BLAS (column-major). These replace the MKL
// the paper ran on; all kernels charge their true flop count to
// ptlr::flops::Counter so model-vs-measured comparisons in the auto-tuner
// tests are exact.
#pragma once

#include "dense/matrix.hpp"

namespace ptlr::dense {

/// Transposition selector for GEMM operands.
enum class Trans { N, T };
/// Which triangle of a symmetric/triangular matrix is referenced.
enum class Uplo { Lower, Upper };
/// Side of the triangular operand in TRSM.
enum class Side { Left, Right };
/// Whether the triangular operand has an implicit unit diagonal.
enum class Diag { NonUnit, Unit };

/// C = alpha * op(A) * op(B) + beta * C.
void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);

/// C = alpha * A * A^T + beta * C (ta == N) or alpha * A^T * A + beta * C
/// (ta == T); only the `uplo` triangle of C is referenced/updated.
void syrk(Uplo uplo, Trans ta, double alpha, ConstMatrixView a, double beta,
          MatrixView c);

/// Solve op(A) * X = alpha * B (Side::Left) or X * op(A) = alpha * B
/// (Side::Right), X overwrites B. A is triangular per `uplo`/`diag`.
void trsm(Side side, Uplo uplo, Trans ta, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b);

/// y = alpha * op(A) * x + beta * y.
void gemv(Trans ta, double alpha, ConstMatrixView a, const double* x,
          double beta, double* y);

// ------------------------------------------------------------------------
// Kernel-path control (see docs/performance.md).
//
// The level-3 kernels have two implementations: the cache-blocked, packed
// engine (gemm_kernel.cpp/pack.cpp) and the seed's unblocked reference
// loops. kAuto picks per call by problem volume; the other values force one
// path — used by the oracle tests and the kernel benchmark.

/// Which level-3 implementation to run.
enum class KernelPath { kAuto, kBlocked, kUnblocked };

/// Override the kernel path for the whole process (not thread-local; call
/// before spawning workers).
void set_kernel_path(KernelPath path);

/// Currently configured path (kAuto unless overridden by set_kernel_path).
KernelPath kernel_path();

/// Dot product of length-n vectors.
double dot(int n, const double* x, const double* y);

/// y += alpha * x for length-n vectors.
void axpy(int n, double alpha, const double* x, double* y);

/// Scale a length-n vector.
void scal(int n, double alpha, double* x);

/// Euclidean norm of a length-n vector.
double nrm2(int n, const double* x);

}  // namespace ptlr::dense
