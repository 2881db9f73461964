#include "compress/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"

namespace ptlr::compress {

using dense::ConstMatrixView;
using dense::Matrix;
using dense::MatrixView;
using dense::Trans;

namespace {

// Buffers come from the caller's scratch arena when provided (the hot-path
// LR GEMM hands in its thread-local arena) or from owned heap storage
// otherwise (tests, tools, drivers).
class Workspace {
 public:
  explicit Workspace(const AllocFn& alloc) : alloc_(alloc) {}
  double* get(std::size_t n) {
    if (alloc_) return alloc_(n);
    own_.emplace_back(n);
    return own_.back().data();
  }

 private:
  const AllocFn& alloc_;
  std::vector<std::vector<double>> own_;
};

// Fraction of `tol` the range-residual estimate must reach before the
// sketch stops growing; the SVD polish spends the remaining error budget,
// so the two stages together stay within tol.
constexpr double kEstimatorShare = 0.5;
// The estimate is a sample mean over one probe block and undershoots the
// true residual about half the time (st-3D-exp tiles, 7,200 seeded draws
// with 16 probes: by up to 2.0×). Both the stop test and the polish budget
// charge it at this multiple: the polish keeps √(tol² − (2·est)²) ≥
// 0.87·tol, and a rank-one residual beats the charge only when a χ²₁₆
// draw falls below 4 (probability ≈ 3·10⁻⁴); spread-out residuals are far
// tighter, and the truncation slack absorbs most of the rest.
constexpr double kEstimatorSafety = 2.0;

using ApplyFn = std::function<void(ConstMatrixView, MatrixView)>;

struct RangeResult {
  int r = 0;             ///< columns of Q retained
  double est = 0.0;      ///< last stochastic residual estimate
  bool converged = false;
  int sketch_cols = 0;   ///< Gaussian columns drawn (incl. probe blocks)
};

// Incremental blocked randomized range finder. apply(omega, y) computes
// y = A·omega (m×bk from n×bk). Q accumulates in qbuf (m × limit,
// column-major). Each round draws a Gaussian block, projects out the
// current basis (twice, block Gram-Schmidt with re-orthogonalization), and
// reads the residual estimate off the *unabsorbed* block — the a-posteriori
// sample bound E‖(I−QQᵀ)Aω‖² = ‖(I−QQᵀ)A‖²_F. Converges when the charged
// estimate kEstimatorSafety·est meets tol·kEstimatorShare or the basis
// spans min(m, n); gives up (converged = false) when `limit` columns are
// exhausted first.
RangeResult adaptive_range(int m, int n, int limit, int block, double tol,
                           Rng& rng, Workspace& ws, double* qbuf,
                           const ApplyFn& apply) {
  RangeResult res;
  const int full = std::min(m, n);
  const double stop = tol * kEstimatorShare / kEstimatorSafety;
  double* obuf = ws.get(static_cast<std::size_t>(n) * block);
  double* ybuf = ws.get(static_cast<std::size_t>(m) * block);
  double* cbuf = ws.get(static_cast<std::size_t>(std::max(limit, 1)) * block);
  for (;;) {
    if (res.r >= full) {
      // The basis spans the whole space: the residual is exactly zero.
      res.converged = true;
      res.est = 0.0;
      return res;
    }
    // Always a full probe block, even when fewer columns remain to absorb:
    // the estimate's variance is that of `block` probes.
    const int bk = block;
    MatrixView omega(obuf, n, bk, n);
    dense::fill_gaussian(omega, rng);
    res.sketch_cols += bk;
    MatrixView y(ybuf, m, bk, m);
    apply(omega, y);
    if (res.r > 0) {
      ConstMatrixView q(qbuf, m, res.r, m);
      MatrixView coef(cbuf, res.r, bk, res.r);
      for (int pass = 0; pass < 2; ++pass) {
        dense::gemm(Trans::T, Trans::N, 1.0, q, y, 0.0, coef);
        dense::gemm(Trans::N, Trans::N, -1.0, q, coef, 1.0, y);
      }
    }
    double sum2 = 0.0;
    for (int j = 0; j < bk; ++j) {
      const double nj = dense::nrm2(m, y.col(j));
      sum2 += nj * nj;
    }
    res.est = std::sqrt(sum2 / bk);
    if (res.est <= stop) {
      res.converged = true;
      return res;
    }
    // Absorb what the cap still admits; an exhausted cap without a
    // converged estimate is the fallback signal.
    const int absorb = std::min(bk, limit - res.r);
    if (absorb <= 0) return res;
    MatrixView qnew(qbuf + static_cast<std::size_t>(res.r) * m, m, absorb, m);
    dense::copy(ConstMatrixView(ybuf, m, absorb, m), qnew);
    // Rank-revealing QR, not plain geqrf: once the basis nears the true
    // rank the projected block is rank-deficient, and the Householder
    // completion of its null columns would inject directions that are not
    // orthogonal to the existing basis — silently corrupting Q and the
    // factor built on it. Keep only the directions carrying real energy.
    const auto piv = dense::geqp3_trunc(qnew, stop * 0.1, absorb);
    if (piv.rank == 0) return res;  // no absorbable energy: give up
    dense::orgqr(qnew, piv.tau, piv.rank);
    res.r += piv.rank;
  }
}

// SVD polish: B = QᵀA computed through apply_t as Bᵀ = AᵀQ (n×r), truncated
// at the error budget the charged estimate left over: the range residual
// and the dropped singular values are orthogonal, so their squares add.
// Returns std::nullopt when the truncation rank exceeds `maxrank`.
std::optional<LowRankFactor> polish(int m, int n, int r, double est,
                                    double tol, int maxrank,
                                    const double* qbuf, Workspace& ws,
                                    const ApplyFn& apply_t) {
  if (r == 0) return LowRankFactor{Matrix(m, 0), Matrix(n, 0)};
  double* btbuf = ws.get(static_cast<std::size_t>(n) * r);
  MatrixView bt(btbuf, n, r, n);
  apply_t(ConstMatrixView(qbuf, m, r, m), bt);
  const dense::Svd svd = dense::jacobi_svd(bt);
  const double charged = kEstimatorSafety * est;  // ≤ tol·kEstimatorShare
  const double budget = std::sqrt(tol * tol - charged * charged);
  const int k = truncation_rank(svd.s, budget);
  if (k > maxrank) return std::nullopt;
  return truncated_factor(ConstMatrixView(qbuf, m, r, m), bt, svd.u, k);
}

}  // namespace

std::optional<LowRankFactor> compress_adaptive_rsvd(ConstMatrixView a,
                                                    const Accuracy& acc,
                                                    Rng& rng,
                                                    AdaptiveStats* stats,
                                                    const AllocFn& alloc) {
  const int m = a.rows(), n = a.cols();
  PTLR_CHECK(dense::all_finite(a),
             "compress_adaptive_rsvd: non-finite input block");
  AdaptiveStats local;
  if (stats == nullptr) stats = &local;
  stats->attempted = true;
  Workspace ws(alloc);
  const int full = std::min(m, n);
  const int block = std::max(1, acc.policy.block);
  // Leave one block of slack past the cap: the SVD polish may still round
  // an over-sampled basis down to an admissible rank.
  const int limit =
      acc.maxrank < full ? std::min(full, acc.maxrank + block) : full;
  double* qbuf = ws.get(static_cast<std::size_t>(m) * limit);
  const auto range = adaptive_range(
      m, n, limit, block, acc.tol, rng, ws, qbuf,
      [&a](ConstMatrixView omega, MatrixView y) {
        dense::gemm(Trans::N, Trans::N, 1.0, a, omega, 0.0, y);
      });
  stats->sketch_cols = range.sketch_cols;
  stats->est_residual = range.est;
  if (!range.converged) return std::nullopt;  // rank cap rules it out
  auto f = polish(m, n, range.r, range.est, acc.tol, acc.maxrank, qbuf, ws,
                  [&a](ConstMatrixView q, MatrixView bt) {
                    dense::gemm(Trans::T, Trans::N, 1.0, a, q, 0.0, bt);
                  });
  if (f) stats->rank = f->rank();
  return f;
}

int recompress_adaptive(LowRankFactor& f, const Accuracy& acc, Rng& rng,
                        AdaptiveStats* stats, const AllocFn& alloc) {
  AdaptiveStats local;
  if (stats == nullptr) stats = &local;
  stats->attempted = true;
  const int k0 = f.rank();
  if (k0 == 0) {
    stats->rank = 0;
    return 0;
  }
  const int m = f.rows(), n = f.cols();
  // The representation bounds the true rank by k0; a basis that wide with
  // an unconverged estimate means the factor is not reducible this way.
  const int limit = std::min({m, n, k0});
  const int block = std::max(1, acc.policy.block);
  Workspace ws(alloc);
  double* qbuf = ws.get(static_cast<std::size_t>(m) * limit);
  double* tbuf =
      ws.get(static_cast<std::size_t>(k0) * std::max(block, limit));
  const auto range = adaptive_range(
      m, n, limit, block, acc.tol, rng, ws, qbuf,
      [&f, k0, tbuf](ConstMatrixView omega, MatrixView y) {
        // A·Ω in product form: U (Vᵀ Ω), O((m+n)·k0·bk).
        MatrixView t(tbuf, k0, omega.cols(), k0);
        dense::gemm(Trans::T, Trans::N, 1.0, f.v.view(), omega, 0.0, t);
        dense::gemm(Trans::N, Trans::N, 1.0, f.u.view(), t, 0.0, y);
      });
  stats->sketch_cols = range.sketch_cols;
  stats->est_residual = range.est;
  if (!range.converged) return -1;
  auto g = polish(m, n, range.r, range.est, acc.tol, std::min(m, n), qbuf,
                  ws, [&f, k0, tbuf](ConstMatrixView q, MatrixView bt) {
                    // Bᵀ = AᵀQ = V (Uᵀ Q), again without materializing A.
                    MatrixView w(tbuf, k0, q.cols(), k0);
                    dense::gemm(Trans::T, Trans::N, 1.0, f.u.view(), q, 0.0,
                                w);
                    dense::gemm(Trans::N, Trans::N, 1.0, f.v.view(), w, 0.0,
                                bt);
                  });
  if (!g) return -1;  // unreachable with maxrank = min(m, n); defensive
  if (g->rank() >= k0) {
    // No reduction; keep the existing factor (recompress() contract).
    stats->rank = k0;
    return k0;
  }
  stats->rank = g->rank();
  f = std::move(*g);
  return f.rank();
}

std::optional<LowRankFactor> compress_with_policy(dense::ConstMatrixView a,
                                                  const Accuracy& acc,
                                                  AdaptiveStats* stats,
                                                  const AllocFn& alloc) {
  AdaptiveStats local;
  if (stats == nullptr) stats = &local;
  const CompressPolicy& p = acc.policy;
  if (p.method != Method::kAdaptiveRsvd ||
      std::min(a.rows(), a.cols()) < p.min_dim) {
    return compress(a, acc);
  }
  Rng rng(p.seed);
  std::optional<LowRankFactor> f =
      compress_adaptive_rsvd(a, acc, rng, stats, alloc);
  if (f) return f;
  stats->fell_back = true;
  return compress(a, acc);
}

int recompress_with_policy(LowRankFactor& f, const Accuracy& acc,
                           AdaptiveStats* stats, const AllocFn& alloc) {
  AdaptiveStats local;
  if (stats == nullptr) stats = &local;
  const CompressPolicy& p = acc.policy;
  if (p.method != Method::kAdaptiveRsvd || f.rank() < p.min_rank ||
      std::min(f.rows(), f.cols()) < p.min_dim) {
    return recompress(f, acc);
  }
  Rng rng(p.seed);
  const int r = recompress_adaptive(f, acc, rng, stats, alloc);
  if (r >= 0) return r;
  stats->fell_back = true;
  return recompress(f, acc);
}

// ------------------------------------------------------------- policy ----

namespace {

Method parse_method(const std::string& v) {
  if (v == "cpqr" || v == "cpqrsvd" || v == "cpqr+svd") {
    return Method::kCpqrSvd;
  }
  if (v == "rsvd") return Method::kRsvd;
  if (v == "aca") return Method::kAca;
  if (v == "adaptive" || v == "arsvd" || v == "adaptive-rsvd") {
    return Method::kAdaptiveRsvd;
  }
  throw Error("PTLR_COMPRESS: unknown method '" + v +
              "' (expected cpqr|rsvd|aca|adaptive)");
}

long parse_long(const std::string& key, const std::string& v, long lo) {
  char* end = nullptr;
  const long x = std::strtol(v.c_str(), &end, 10);
  PTLR_CHECK(end != nullptr && *end == '\0' && x >= lo,
             "PTLR_COMPRESS: bad value for '" + key + "': " + v);
  return x;
}

}  // namespace

CompressPolicy CompressPolicy::parse(const char* spec) {
  CompressPolicy p;
  if (spec == nullptr || spec[0] == '\0') return p;
  std::string s(spec);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      // Bare token: the method name (PTLR_COMPRESS=adaptive).
      p.method = parse_method(item);
      continue;
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "method") {
      p.method = parse_method(value);
    } else if (key == "seed") {
      p.seed = static_cast<std::uint64_t>(parse_long(key, value, 0));
    } else if (key == "min_dim") {
      p.min_dim = static_cast<int>(parse_long(key, value, 0));
    } else if (key == "min_rank") {
      p.min_rank = static_cast<int>(parse_long(key, value, 0));
    } else if (key == "block") {
      p.block = static_cast<int>(parse_long(key, value, 1));
    } else {
      throw Error("PTLR_COMPRESS: unknown key '" + key + "'");
    }
  }
  return p;
}

CompressPolicy CompressPolicy::from_env() {
  return parse(std::getenv("PTLR_COMPRESS"));
}

namespace {

// splitmix64 finalizer — the same mixer the perturbation and fault layers
// use, applied as a stateless hash so a site's draw is independent of every
// other site and of scheduling.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t site_seed(std::uint64_t base, std::uint64_t site,
                        std::uint64_t salt) {
  return mix(mix(mix(base) ^ site) ^ salt);
}

}  // namespace ptlr::compress
