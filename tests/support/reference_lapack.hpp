// Reference dense factorizations the tests compare against (tests only,
// not part of the shipped library): a one-sided Jacobi SVD and the
// application of a geqrf Q (DORMQR). No library code needs either —
// compression is a truncated CPQR plus orgqr.
#pragma once

#include <vector>

#include "dense/blas.hpp"
#include "dense/matrix.hpp"

namespace ptlr::testing {

/// Apply Q^T (trans==T) or Q (trans==N) from the left to `c`, where Q is
/// encoded in `a`/`tau` as produced by dense::geqrf (DORMQR, side=Left).
void ormqr(dense::Trans trans, dense::ConstMatrixView a,
           const std::vector<double>& tau, dense::MatrixView c);

/// Singular values and left singular vectors of A = U * diag(s) * V^T via
/// one-sided Jacobi. Requires rows >= cols (callers transpose if needed).
/// U is m-by-n with orthonormal columns, s is descending. V is not formed:
/// the best rank-k approximation is U_k * (U_k^T * A), and a caller that
/// needs V_k * diag(s_k) forms it as A^T * U_k.
struct Svd {
  dense::Matrix u;
  std::vector<double> s;
};
Svd jacobi_svd(dense::ConstMatrixView a);

/// Singular values only: the tests' reference spectrum.
std::vector<double> singular_values(dense::ConstMatrixView a);

}  // namespace ptlr::testing
