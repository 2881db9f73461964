// Machine-readable compression-engine benchmark (BENCH_compression.json).
//
// Three sections, all on real st-3D-exp covariance blocks:
//
//   * compress    — initial dense→U·Vᵀ throughput of every backend (CPQR+SVD,
//                   RSVD, ACA, adaptive randomized) at a fixed threshold:
//                   time, resulting rank, achieved error.
//   * recompress  — the hot-path case: a rank-inflated factor (the
//                   concatenated [C | P] shape the LR GEMM produces) rounded
//                   back down, deterministic QR+QR+SVD vs the adaptive
//                   randomized engine in product form.
//   * cholesky    — end-to-end TLR band Cholesky with the hot-path engine
//                   switched via CompressPolicy (PTLR_COMPRESS semantics),
//                   CPQR+SVD vs adaptive at the paper's tighter thresholds.
//                   obs counters report the recompression count, the
//                   adaptive attempt/fallback rate and mean sketch width
//                   alongside the wall time, and the solve residual
//                   ‖z − Σx‖/‖z‖ with Σ applied from the generator.
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
#include "compress/adaptive.hpp"
#include "compress/methods.hpp"
#include "core/solve.hpp"
#include "dense/blas.hpp"
#include "obs/trace.hpp"

using namespace ptlr;
using namespace ptlr::compress;

namespace {

struct CompressRow {
  int b;
  const char* method;
  double ms;
  int rank;  // -1: cap exceeded
  double error;
};

struct RecompressRow {
  int b;
  const char* engine;
  double ms;
  int rank_in;
  int rank_out;
};

struct CholeskyRow {
  int n, b;
  double tol;
  const char* engine;
  double seconds;
  long long recompressions;
  long long updated_lowrank_tiles;  ///< expected recompression count
  long long adaptive;
  long long fallbacks;
  double mean_sketch_cols;
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

  bench::header("bench_compression", "compression engines on covariance tiles");
  auto prob = bench::st3d_exp(std::max(sc.n, 2 * tile_sizes.back()));

  // ---------------------------------------------------- compress micro ----
  const double tol = 1e-6;
  const Method methods[] = {Method::kCpqrSvd, Method::kRsvd, Method::kAca,
                            Method::kAdaptiveRsvd};
  std::vector<CompressRow> compress_rows;
  std::printf("\ncompress (dense -> UV^T, tol %.0e)\n", tol);
  std::printf("%6s %-14s %10s %6s %10s\n", "b", "method", "ms", "rank",
              "error");
  for (const int b : tile_sizes) {
    const auto tile = prob.block(b, 0, b, b);  // first sub-diagonal tile
    for (const Method m : methods) {
      const Accuracy acc{tol, 1 << 30};
      std::optional<LowRankFactor> f;
      const double ms = best_of(5, [&] {
        Rng rng(9);
        WallTimer w;
        f = compress_with(m, tile.view(), acc, rng);
        return w.milliseconds();
      });
      CompressRow row{b, to_string(m), ms, -1, 0.0};
      if (f) {
        row.rank = f->rank();
        row.error = approximation_error(tile.view(), *f);
      }
      compress_rows.push_back(row);
      std::printf("%6d %-14s %10.4f %6d %10.3e\n", b, row.method, row.ms,
                  row.rank, row.error);
    }
  }

  // -------------------------------------------------- recompress micro ----
  std::vector<RecompressRow> recompress_rows;
  std::printf("\nrecompress (rank-inflated factor, tol %.0e)\n", tol);
  std::printf("%6s %-14s %10s %8s %9s\n", "b", "engine", "ms", "rank_in",
              "rank_out");
  for (const int b : tile_sizes) {
    const auto tile = prob.block(b, 0, b, b);
    const Accuracy acc{tol, 1 << 30};
    const auto f0 = ptlr::compress::compress(tile.view(), acc);
    if (!f0) continue;
    const LowRankFactor fat = inflate(*f0);

    Accuracy adaptive_acc = acc;
    adaptive_acc.policy =
        CompressPolicy::parse("method=adaptive,min_dim=32,min_rank=4");

    struct Engine {
      const char* name;
      const Accuracy* acc;
    };
    const Engine engines[] = {{"cpqr", &acc}, {"adaptive", &adaptive_acc}};
    for (const Engine& e : engines) {
      int rank_out = 0;
      // Each rep pays one factor copy (recompression is in-place); the copy
      // is O(b·k) against the O(b·k²) round, so the floor is representative.
      const double ms = best_of(5, [&] {
        LowRankFactor f = fat;
        WallTimer w;
        rank_out = recompress_with_policy(f, *e.acc);
        return w.milliseconds();
      });
      recompress_rows.push_back({b, e.name, ms, fat.rank(), rank_out});
      std::printf("%6d %-14s %10.4f %8d %9d\n", b, e.name, ms, fat.rank(),
                  rank_out);
    }
  }

  // ------------------------------------------------ end-to-end Cholesky ----
  std::vector<CholeskyRow> chol_rows;
  std::vector<double> chol_tols = {1e-6, 1e-8};
  const int reps = scale == "small" ? 1 : 2;
  std::printf("\ncholesky (n=%d, b=%d, %d threads, hot-path engine via "
              "CompressPolicy)\n", sc.n, sc.b, sc.threads);
  std::printf("%8s %-10s %10s %14s %10s %10s %12s %10s\n", "tol", "engine",
              "seconds", "recompressions", "adaptive", "fallbacks",
              "sketch/att", "residual");
  for (const double ctol : chol_tols) {
    struct Engine {
      const char* name;
      const char* spec;
    };
    const Engine engines[] = {{"cpqr", "cpqr"}, {"adaptive", "adaptive"}};
    for (const Engine& e : engines) {
      double best = 1e300;
      obs::CompressionCounters cc;
      long long updated = 0;
      double resid = 0.0;
      for (int r = 0; r < reps; ++r) {
        auto p = bench::st3d_exp(sc.n);
        const Accuracy acc{ctol, 1 << 30};
        auto sigma = tlr::TlrMatrix::from_problem(p, sc.b, acc, 1);
        updated = 0;  // low-rank tiles (i, j) with j >= 1: one compression
        for (int i = 0; i < sigma.nt(); ++i)
          for (int j = 1; j < i; ++j)
            if (sigma.at(i, j).is_lowrank()) ++updated;
        core::CholeskyConfig cfg;
        cfg.acc = acc;
        cfg.compress = CompressPolicy::parse(e.spec);
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
      const double mean_sketch =
          cc.adaptive > 0
              ? static_cast<double>(cc.sketch_cols_sum) /
                    static_cast<double>(cc.adaptive)
              : 0.0;
      chol_rows.push_back({sc.n, sc.b, ctol, e.name, best, cc.count,
                           updated, cc.adaptive, cc.fallbacks, mean_sketch,
                           resid});
      std::printf("%8.0e %-10s %10.4f %14lld %10lld %10lld %12.1f %10.3e\n",
                  ctol, e.name, best, cc.count, cc.adaptive, cc.fallbacks,
                  mean_sketch, resid);
      std::fflush(stdout);
    }
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
                 "    {\"b\": %d, \"method\": \"%s\", \"ms\": %.4f, "
                 "\"rank\": %d, \"error\": %.3e}%s\n",
                 r.b, r.method, r.ms, r.rank, r.error,
                 i + 1 < compress_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"recompress\": [\n");
  for (std::size_t i = 0; i < recompress_rows.size(); ++i) {
    const RecompressRow& r = recompress_rows[i];
    std::fprintf(f,
                 "    {\"b\": %d, \"engine\": \"%s\", \"ms\": %.4f, "
                 "\"rank_in\": %d, \"rank_out\": %d}%s\n",
                 r.b, r.engine, r.ms, r.rank_in, r.rank_out,
                 i + 1 < recompress_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"cholesky\": [\n");
  for (std::size_t i = 0; i < chol_rows.size(); ++i) {
    const CholeskyRow& r = chol_rows[i];
    std::fprintf(
        f,
        "    {\"n\": %d, \"b\": %d, \"tol\": %.0e, \"engine\": \"%s\", "
        "\"seconds\": %.4f, \"recompressions\": %lld, "
        "\"updated_lowrank_tiles\": %lld, \"adaptive\": %lld, "
        "\"fallbacks\": %lld, \"mean_sketch_cols\": %.1f, "
        "\"residual\": %.3e}%s\n",
        r.n, r.b, r.tol, r.engine, r.seconds, r.recompressions,
        r.updated_lowrank_tiles, r.adaptive, r.fallbacks, r.mean_sketch_cols,
        r.residual, i + 1 < chol_rows.size() ? "," : "");
  }
  // adaptive/cpqr end-to-end speedup per threshold.
  std::fprintf(f, "  ],\n  \"speedup_adaptive_over_cpqr\": [\n");
  bool first = true;
  for (const CholeskyRow& r : chol_rows) {
    if (std::string(r.engine) != "adaptive") continue;
    for (const CholeskyRow& c : chol_rows) {
      if (std::string(c.engine) == "cpqr" && c.tol == r.tol) {
        std::fprintf(f, "%s    {\"tol\": %.0e, \"x\": %.3f}",
                     first ? "" : ",\n", r.tol, c.seconds / r.seconds);
        first = false;
      }
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);

  int bad = 0;
  for (const CompressRow& r : compress_rows) {
    if (r.rank < 0 || r.error <= tol) continue;
    std::fprintf(stderr, "FAIL: compress b=%d %s: error %.3e > tol %.0e\n",
                 r.b, r.method, r.error, tol);
    ++bad;
  }
  for (const CholeskyRow& r : chol_rows) {
    if (r.residual > 10.0 * r.tol) {
      std::fprintf(stderr,
                   "FAIL: cholesky tol %.0e %s: residual %.3e > 10*tol\n",
                   r.tol, r.engine, r.residual);
      ++bad;
    }
    if (r.recompressions == r.updated_lowrank_tiles) continue;
    std::fprintf(stderr,
                 "FAIL: cholesky tol %.0e %s: %lld recompressions, expected "
                 "one per updated low-rank tile (%lld)\n",
                 r.tol, r.engine, r.recompressions, r.updated_lowrank_tiles);
    ++bad;
  }
  return bad == 0 ? 0 : 1;
}
