// Machine-readable compression benchmark (BENCH_compression.json).
//
// Three sections, all on real st-3D-exp covariance blocks:
//
//   * compress    — initial dense→U·Vᵀ throughput of compress() per tile
//                   size at a fixed threshold: time, resulting rank,
//                   achieved error.
//   * recompress  — a rank-inflated factor (the concatenated [C | P] shape)
//                   rounded back down by recompress(): QR + QR + compress()
//                   of the core.
//   * cholesky    — end-to-end thin-band TLR Cholesky at the paper's
//                   tighter thresholds. obs counters report the
//                   recompression count alongside the wall time, and the
//                   solve residual ‖z − Σx‖/‖z‖ with Σ applied from the
//                   generator.
//
// Output: BENCH_compression.json (override with PTLR_BENCH_OUT or argv[1]).
// PTLR_BENCH_SCALE=small shrinks sizes for CI smoke runs. Exits 1 (after
// writing the JSON) when a Cholesky row's recompression count is not the
// number of low-rank tiles with at least one update (each such tile is
// compressed exactly once, by its last update), when a compress row's
// error exceeds its tol, or when a Cholesky row's residual exceeds 10·tol
// — so a speedup cannot quietly trade away accuracy.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/solve.hpp"
#include "dense/blas.hpp"
#include "obs/trace.hpp"

using namespace ptlr;
using namespace ptlr::compress;

namespace {

struct CompressRow {
  int b;
  double ms;
  int rank;  // -1: cap exceeded
  double error;
};

struct RecompressRow {
  int b;
  double ms;
  int rank_in;
  int rank_out;
};

struct CholeskyRow {
  int n, b;
  double tol;
  double seconds;
  long long recompressions;
  long long updated_lowrank_tiles;  ///< expected recompression count
  double residual;  ///< ‖z − Σx‖/‖z‖ of the factor's solve
};

// Doubling [U | U]·[V/2 | V/2]ᵀ keeps the represented matrix bitwise
// identical while doubling the stored rank — the shape recompression sees
// after a two-stage LR GEMM concatenation.
LowRankFactor inflate(const LowRankFactor& f) {
  const int m = f.rows(), n = f.cols(), k = f.rank();
  dense::Matrix u(m, 2 * k), v(n, 2 * k);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < m; ++i) u(i, j) = u(i, j + k) = f.u(i, j);
    for (int i = 0; i < n; ++i) v(i, j) = v(i, j + k) = 0.5 * f.v(i, j);
  }
  return {std::move(u), std::move(v)};
}

// ‖z − Σx‖/‖z‖ with Σ generated panel by panel from the problem, so the
// check does not trust any compressed representation.
double residual(const stars::CovarianceProblem& prob,
                const std::vector<double>& x, const std::vector<double>& z) {
  const int n = prob.n();
  constexpr int kPanel = 128;
  dense::Matrix panel(kPanel, n);
  std::vector<double> y(kPanel);
  double rr = 0.0, zz = 0.0;
  for (int r0 = 0; r0 < n; r0 += kPanel) {
    const int rows = std::min(kPanel, n - r0);
    auto v = panel.block(0, 0, rows, n);
    prob.fill_block(r0, 0, v);
    dense::gemv(dense::Trans::N, 1.0, v, x.data(), 0.0, y.data());
    for (int i = 0; i < rows; ++i) {
      const double zi = z[static_cast<std::size_t>(r0 + i)];
      const double d = zi - y[static_cast<std::size_t>(i)];
      rr += d * d;
      zz += zi * zi;
    }
  }
  return std::sqrt(rr / zz);
}

double best_of(int reps, const std::function<double()>& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, run());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_compression.json";
  if (const char* env = std::getenv("PTLR_BENCH_OUT")) out_path = env;
  if (argc > 1) out_path = argv[1];

  const auto sc = bench::scale();
  const char* scale_env = std::getenv("PTLR_BENCH_SCALE");
  const std::string scale =
      scale_env != nullptr ? scale_env : std::string("default");
  std::vector<int> tile_sizes = {128, 256, 512};
  if (scale == "small") tile_sizes = {128, 256};

  bench::header("bench_compression", "compress() on covariance tiles");
  auto prob = bench::st3d_exp(std::max(sc.n, 2 * tile_sizes.back()));

  // ---------------------------------------------------- compress micro ----
  const double tol = 1e-6;
  const Accuracy acc{tol, 1 << 30};
  std::vector<CompressRow> compress_rows;
  std::printf("\ncompress (dense -> UV^T, tol %.0e)\n", tol);
  std::printf("%6s %10s %6s %10s\n", "b", "ms", "rank", "error");
  for (const int b : tile_sizes) {
    const auto tile = prob.block(b, 0, b, b);  // first sub-diagonal tile
    std::optional<LowRankFactor> f;
    const double ms = best_of(5, [&] {
      WallTimer w;
      f = compress::compress(tile.view(), acc);
      return w.milliseconds();
    });
    CompressRow row{b, ms, -1, 0.0};
    if (f) {
      row.rank = f->rank();
      row.error = approximation_error(tile.view(), *f);
    }
    compress_rows.push_back(row);
    std::printf("%6d %10.4f %6d %10.3e\n", b, row.ms, row.rank, row.error);
  }

  // -------------------------------------------------- recompress micro ----
  std::vector<RecompressRow> recompress_rows;
  std::printf("\nrecompress (rank-inflated factor, tol %.0e)\n", tol);
  std::printf("%6s %10s %8s %9s\n", "b", "ms", "rank_in", "rank_out");
  for (const int b : tile_sizes) {
    const auto tile = prob.block(b, 0, b, b);
    const auto f0 = compress::compress(tile.view(), acc);
    if (!f0) continue;
    const LowRankFactor fat = inflate(*f0);
    int rank_out = 0;
    // Each rep pays one factor copy (recompression is in-place); the copy
    // is O(b·k) against the O(b·k²) round, so the floor is representative.
    const double ms = best_of(5, [&] {
      LowRankFactor f = fat;
      WallTimer w;
      rank_out = recompress(f, acc);
      return w.milliseconds();
    });
    recompress_rows.push_back({b, ms, fat.rank(), rank_out});
    std::printf("%6d %10.4f %8d %9d\n", b, ms, fat.rank(), rank_out);
  }

  // ------------------------------------------------ end-to-end Cholesky ----
  std::vector<CholeskyRow> chol_rows;
  std::vector<double> chol_tols = {1e-6, 1e-8};
  const int reps = scale == "small" ? 1 : 2;
  std::printf("\ncholesky (n=%d, b=%d, %d threads, band 1)\n", sc.n, sc.b,
              sc.threads);
  std::printf("%8s %10s %14s %10s\n", "tol", "seconds", "recompressions",
              "residual");
  for (const double ctol : chol_tols) {
    double best = 1e300;
    obs::CompressionCounters cc;
    long long updated = 0;
    double resid = 0.0;
    for (int r = 0; r < reps; ++r) {
      auto p = bench::st3d_exp(sc.n);
      const Accuracy cacc{ctol, 1 << 30};
      auto sigma = tlr::TlrMatrix::from_problem(p, sc.b, cacc, 1);
      updated = 0;  // low-rank tiles (i, j) with j >= 1: one compression
      for (int i = 0; i < sigma.nt(); ++i)
        for (int j = 1; j < i; ++j)
          if (sigma.at(i, j).is_lowrank()) ++updated;
      core::CholeskyConfig cfg;
      cfg.acc = cacc;
      cfg.band_size = 1;  // thin band: recompression-heavy LR updates
      cfg.nthreads = sc.threads;
      obs::reset();
      obs::enable(true);
      const auto res = core::factorize(sigma, &p, cfg);
      obs::enable(false);
      if (res.factor_seconds < best) {
        best = res.factor_seconds;
        cc = obs::Counters::compressions();
      }
      if (r == 0) {  // every rep computes the same factor bit for bit
        Rng zr(0);
        const auto z = p.synthetic_observations(zr);
        resid = residual(p, core::solve(sigma, z), z);
      }
    }
    chol_rows.push_back({sc.n, sc.b, ctol, best, cc.count, updated, resid});
    std::printf("%8.0e %10.4f %14lld %10.3e\n", ctol, best, cc.count,
                resid);
    std::fflush(stdout);
  }

  // ------------------------------------------------------------- JSON ----
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"compression\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", scale.c_str());
  std::fprintf(f, "  \"compress\": [\n");
  for (std::size_t i = 0; i < compress_rows.size(); ++i) {
    const CompressRow& r = compress_rows[i];
    std::fprintf(f,
                 "    {\"b\": %d, \"ms\": %.4f, \"rank\": %d, "
                 "\"error\": %.3e}%s\n",
                 r.b, r.ms, r.rank, r.error,
                 i + 1 < compress_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"recompress\": [\n");
  for (std::size_t i = 0; i < recompress_rows.size(); ++i) {
    const RecompressRow& r = recompress_rows[i];
    std::fprintf(f,
                 "    {\"b\": %d, \"ms\": %.4f, \"rank_in\": %d, "
                 "\"rank_out\": %d}%s\n",
                 r.b, r.ms, r.rank_in, r.rank_out,
                 i + 1 < recompress_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"cholesky\": [\n");
  for (std::size_t i = 0; i < chol_rows.size(); ++i) {
    const CholeskyRow& r = chol_rows[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"b\": %d, \"tol\": %.0e, "
                 "\"seconds\": %.4f, \"recompressions\": %lld, "
                 "\"updated_lowrank_tiles\": %lld, \"residual\": %.3e}%s\n",
                 r.n, r.b, r.tol, r.seconds, r.recompressions,
                 r.updated_lowrank_tiles, r.residual,
                 i + 1 < chol_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);

  int bad = 0;
  for (const CompressRow& r : compress_rows) {
    if (r.rank < 0 || r.error <= tol) continue;
    std::fprintf(stderr, "FAIL: compress b=%d: error %.3e > tol %.0e\n",
                 r.b, r.error, tol);
    ++bad;
  }
  for (const CholeskyRow& r : chol_rows) {
    if (r.residual > 10.0 * r.tol) {
      std::fprintf(stderr, "FAIL: cholesky tol %.0e: residual %.3e > 10*tol\n",
                   r.tol, r.residual);
      ++bad;
    }
    if (r.recompressions == r.updated_lowrank_tiles) continue;
    std::fprintf(stderr,
                 "FAIL: cholesky tol %.0e: %lld recompressions, expected "
                 "one per updated low-rank tile (%lld)\n",
                 r.tol, r.recompressions, r.updated_lowrank_tiles);
    ++bad;
  }
  return bad == 0 ? 0 : 1;
}
