#include "stars/problem.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ptlr::stars {

namespace {

// Column j of a kernel block: out[i] = C(‖rows[i] − pj‖) for i < m, plus
// `nugget` at row `diag` when 0 <= diag < m (the diagonal entry). The
// distances go through `dist`, so the kernel sees the column as one batch.
// Every block and every entry() runs this (and this source builds with
// -ffp-contract=off), so an entry has the same bits in any block.
void kernel_column(const CovarianceKernel& kernel, const Point* rows, int m,
                   const Point& pj, int diag, double nugget, double* dist,
                   double* out) {
  for (int i = 0; i < m; ++i) dist[i] = distance(rows[i], pj);
  kernel.eval(dist, out, m);
  if (diag >= 0 && diag < m) out[diag] += nugget;
}

// out = C between rows[row0:] and cols[col0:], a column at a time. A
// `nugget` means rows and cols are one point set, whose diagonal (global
// row == global column) gets it added. The distances go through a stack
// buffer, kChunk rows at a time: a heap buffer per block fragmented the
// workers' malloc arenas (mle_fit's peak RSS rose by 5%).
void kernel_block(const CovarianceKernel& kernel,
                  const std::vector<Point>& rows, int row0,
                  const std::vector<Point>& cols, int col0,
                  const double* nugget, dense::MatrixView out) {
  constexpr int kChunk = 256;
  double dist[kChunk];
  for (int j = 0; j < out.cols(); ++j) {
    const int diag = nugget != nullptr ? col0 + j - row0 : -1;
    for (int i0 = 0; i0 < out.rows(); i0 += kChunk) {
      kernel_column(kernel, rows.data() + row0 + i0,
                    std::min(kChunk, out.rows() - i0),
                    cols[static_cast<std::size_t>(col0 + j)], diag - i0,
                    nugget != nullptr ? *nugget : 0.0, dist,
                    out.col(j) + i0);
    }
  }
}

}  // namespace

std::string to_string(ProblemKind kind) {
  switch (kind) {
    case ProblemKind::kSt3DExp: return "st-3D-exp";
    case ProblemKind::kSt2DExp: return "st-2D-exp";
    case ProblemKind::kSt3DSqExp: return "st-3D-sqexp";
    case ProblemKind::kSt3DMatern: return "st-3D-matern(1.5)";
    case ProblemKind::kElectrostatics3D: return "electrostatics-3D";
    case ProblemKind::kElectrodynamics3D: return "electrodynamics-3D";
  }
  return "unknown";
}

CovarianceProblem::CovarianceProblem(
    std::vector<Point> points,
    std::shared_ptr<const CovarianceKernel> kernel, double nugget)
    : points_(std::move(points)), kernel_(std::move(kernel)),
      nugget_(nugget) {
  PTLR_CHECK(!points_.empty(), "problem needs at least one point");
  PTLR_CHECK(kernel_ != nullptr, "problem needs a kernel");
  PTLR_CHECK(nugget_ >= 0.0, "nugget must be non-negative");
}

double CovarianceProblem::entry(int i, int j) const {
  PTLR_ASSERT(i >= 0 && i < n() && j >= 0 && j < n(), "entry out of range");
  double dist = 0.0, value = 0.0;
  kernel_column(*kernel_, &points_[static_cast<std::size_t>(i)], 1,
                points_[static_cast<std::size_t>(j)], i == j ? 0 : -1,
                nugget_, &dist, &value);
  return value;
}

void CovarianceProblem::fill_block(int row0, int col0,
                                   dense::MatrixView out) const {
  PTLR_CHECK(row0 >= 0 && col0 >= 0 && row0 + out.rows() <= n() &&
                 col0 + out.cols() <= n(),
             "block out of range");
  kernel_block(*kernel_, points_, row0, points_, col0, &nugget_, out);
}

dense::Matrix CovarianceProblem::block(int row0, int col0, int rows,
                                       int cols) const {
  dense::Matrix out(rows, cols);
  fill_block(row0, col0, out.view());
  return out;
}

std::vector<double> CovarianceProblem::synthetic_observations(
    Rng& rng) const {
  std::vector<double> z(static_cast<std::size_t>(n()));
  for (auto& v : z) v = rng.gaussian();
  return z;
}

CovarianceProblem make_problem(ProblemKind kind, int n, std::uint64_t seed,
                               double nugget) {
  Rng rng(seed);
  switch (kind) {
    case ProblemKind::kSt3DExp:
      // Section IV: θ1 = 1, θ2 = 0.1, θ3 = 0.5 reduces Matérn to
      // C(r) = exp(-r / 0.1) — medium correlation, rough field.
      return {grid3d(n, rng), std::make_shared<Matern>(1.0, 0.1, 0.5),
              nugget};
    case ProblemKind::kSt2DExp:
      return {grid2d(n, rng), std::make_shared<Matern>(1.0, 0.1, 0.5),
              nugget};
    case ProblemKind::kSt3DSqExp:
      return {grid3d(n, rng),
              std::make_shared<SquaredExponential>(1.0, 0.1), nugget};
    case ProblemKind::kSt3DMatern:
      return {grid3d(n, rng), std::make_shared<Matern>(1.0, 0.1, 1.5),
              nugget};
    case ProblemKind::kElectrostatics3D:
      // Regularized self-interaction scaled to dominate the row sums so the
      // operator stays usable as an SPD test matrix at laptop sizes.
      return {grid3d(n, rng),
              std::make_shared<Electrostatics>(2.0 * std::cbrt(double(n)) *
                                               std::cbrt(double(n))),
              nugget};
    case ProblemKind::kElectrodynamics3D:
      return {grid3d(n, rng), std::make_shared<Electrodynamics>(12.0),
              nugget};
  }
  throw Error("unknown problem kind");
}

CovarianceProblem make_st3d_matern(int n, double theta1, double theta2,
                                   double theta3, std::uint64_t seed,
                                   double nugget) {
  Rng rng(seed);
  return {grid3d(n, rng),
          std::make_shared<Matern>(theta1, theta2, theta3), nugget};
}

CrossCovariance::CrossCovariance(
    std::vector<Point> rows, std::vector<Point> cols,
    std::shared_ptr<const CovarianceKernel> kernel)
    : rows_(std::move(rows)), cols_(std::move(cols)),
      kernel_(std::move(kernel)) {
  PTLR_CHECK(!rows_.empty() && !cols_.empty(),
             "cross-covariance needs points on both sides");
  PTLR_CHECK(kernel_ != nullptr, "cross-covariance needs a kernel");
}

double CrossCovariance::entry(int i, int j) const {
  PTLR_ASSERT(i >= 0 && i < rows() && j >= 0 && j < cols(),
              "entry out of range");
  double dist = 0.0, value = 0.0;
  kernel_column(*kernel_, &rows_[static_cast<std::size_t>(i)], 1,
                cols_[static_cast<std::size_t>(j)], -1, 0.0, &dist, &value);
  return value;
}

void CrossCovariance::fill_block(int row0, int col0,
                                 dense::MatrixView out) const {
  PTLR_CHECK(row0 >= 0 && col0 >= 0 && row0 + out.rows() <= rows() &&
                 col0 + out.cols() <= cols(),
             "block out of range");
  kernel_block(*kernel_, rows_, row0, cols_, col0, nullptr, out);
}

dense::Matrix CrossCovariance::block(int row0, int col0, int nrows,
                                     int ncols) const {
  dense::Matrix out(nrows, ncols);
  fill_block(row0, col0, out.view());
  return out;
}

}  // namespace ptlr::stars
