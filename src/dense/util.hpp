// Dense matrix utilities: norms, comparisons, random generators.
#pragma once

#include "common/rng.hpp"
#include "dense/blas.hpp"
#include "dense/matrix.hpp"

namespace ptlr::dense {

/// Frobenius norm.
double frob_norm(ConstMatrixView a);

/// ||A - B||_F.
double frob_diff(ConstMatrixView a, ConstMatrixView b);

/// True iff every entry is finite (no NaN/Inf) — the input validation gate
/// of the compression backends.
bool all_finite(ConstMatrixView a);

/// Deep copy helpers declared in matrix.hpp.
// (to_matrix / copy are defined in util.cpp.)

/// Fill with i.i.d. uniform entries in [lo, hi).
void fill_uniform(MatrixView a, Rng& rng, double lo = -1.0, double hi = 1.0);

/// Fill with i.i.d. standard normal entries.
void fill_gaussian(MatrixView a, Rng& rng);

/// n-by-n identity.
Matrix identity(int n);

/// Random symmetric positive-definite matrix: G*G^T + n*I.
Matrix random_spd(int n, Rng& rng);

/// Random m-by-n matrix of exact rank r with singular values decaying
/// geometrically from 1 to `smin` (for compression tests).
Matrix random_lowrank(int m, int n, int r, double smin, Rng& rng);

/// Mirror the stored lower triangle onto the upper to make `a` fully
/// symmetric.
void symmetrize(Uplo stored, MatrixView a);

/// Zero the strictly-upper triangle of the stored lower triangle.
void zero_opposite_triangle(Uplo stored, MatrixView a);

}  // namespace ptlr::dense
