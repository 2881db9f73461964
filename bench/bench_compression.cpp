// Machine-readable compression benchmark (BENCH_compression.json).
//
// Five sections, all on real st-3D-exp covariance blocks:
//
//   * generate    — the tile generator: fill_block() over the lower
//                   triangle at b = 128, N = 2048 and 4096, one thread:
//                   seconds, entries/s, and the largest relative
//                   difference of an entry from the same entry built with
//                   the scalar libm std::exp (the generator has its own
//                   exp; every other operation is the same).
//   * compress    — initial dense→U·Vᵀ throughput of compress() per tile
//                   size at a fixed threshold: time, resulting rank,
//                   achieved error.
//   * compress_set — compress() over every off-diagonal tile of st-3D-exp
//                   (b = 128, one thread; N = 2048, 1024 at small scale) at
//                   tol 1e-6 and 1e-8: the median and quartiles of the whole
//                   set's time over kSetReps runs, the rank sum and maximum,
//                   and the largest tile error ‖A − U·Vᵀ‖_F.
//   * recompress  — a rank-inflated factor (the concatenated [C | P] shape)
//                   rounded back down by recompress(): QR + QR + compress()
//                   of the core, and the change it made, ‖U·Vᵀ before −
//                   after‖_F.
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
// compressed exactly once, by its last update), when a compress or
// recompress row's error exceeds its tol, when a compress_set row's rank
// sum or maximum differs from its pin (the values Compress.
// St3dExpRanksMatchParent holds) or one of its tiles' error exceeds tol,
// or when a Cholesky row's residual exceeds 10·tol or when a generate
// row's relative difference exceeds kGenerateBound — so a speedup cannot
// quietly trade away accuracy or move a truncation decision.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/solve.hpp"
#include "dense/blas.hpp"
#include "dense/util.hpp"
#include "obs/trace.hpp"

using namespace ptlr;
using namespace ptlr::compress;

namespace {

struct GenerateRow {
  int n, b;
  long long entries;
  double seconds;
  double max_rel_diff;  ///< against θ1·std::exp(−r/θ2) (+ nugget)
};

// One ULP of a double is at most 2^-52 ≈ 2.22e-16 of its value: the
// generator's exp and libm's may differ in the last bit, no more.
constexpr double kGenerateBound = 2.3e-16;

struct CompressRow {
  int b;
  double ms;
  int rank;  // -1: cap exceeded
  double error;
};

// Off-diagonal rank sum and maximum of st-3D-exp at b = 128: the pins of
// Compress.St3dExpRanksMatchParent (the nugget touches only the diagonal).
struct RankPin {
  int n;
  double tol;
  long long rank_sum;
  int rank_max;
};
constexpr RankPin kRankPins[] = {{1024, 1e-6, 2086, 113},
                                 {1024, 1e-8, 2652, 124},
                                 {2048, 1e-6, 7248, 117},
                                 {2048, 1e-8, 9767, 127}};

// Runs of the whole tile set per compress_set row; its median is the CPQR
// kernels' throughput figure (docs/performance.md).
constexpr int kSetReps = 15;

struct CompressSetRow {
  RankPin pin;
  int tiles;
  double median_s, q1_s, q3_s;  ///< whole set, over kSetReps runs
  long long rank_sum;
  int rank_max;
  double max_error;  ///< largest ‖A − U·Vᵀ‖_F over the tiles
};

struct RecompressRow {
  int b;
  double ms;
  int rank_in;
  int rank_out;
  double error;  ///< ‖U·Vᵀ before − after‖_F
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

// Value at quantile q of `v` (sorted in place), nearest rank.
double quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                    0.5)];
}

// compress() over every off-diagonal tile (i > j) of st-3D-exp at the pin's
// N and tol, b = 128, one thread: the tiles are generated once, then the
// whole set is compressed kSetReps times; ranks and errors come from the
// last run.
CompressSetRow compress_set(const RankPin& pin) {
  constexpr int b = 128;
  const auto prob = bench::st3d_exp(pin.n);
  const int nt = (pin.n + b - 1) / b;
  const auto extent = [&](int t) { return std::min(b, pin.n - t * b); };
  std::vector<dense::Matrix> tiles;
  for (int i = 0; i < nt; ++i)
    for (int j = 0; j < i; ++j)
      tiles.push_back(prob.block(i * b, j * b, extent(i), extent(j)));
  const Accuracy acc{pin.tol, 1 << 30};  // no cap: never std::nullopt
  std::vector<LowRankFactor> out(tiles.size());
  std::vector<double> times;
  for (int r = 0; r < kSetReps; ++r) {
    WallTimer w;
    for (std::size_t t = 0; t < tiles.size(); ++t)
      out[t] = *compress::compress(tiles[t].view(), acc);
    times.push_back(w.seconds());
  }
  CompressSetRow row{pin, static_cast<int>(tiles.size()),
                     quantile(times, 0.5), quantile(times, 0.25),
                     quantile(times, 0.75), 0, 0, 0.0};
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    row.rank_sum += out[t].rank();
    row.rank_max = std::max(row.rank_max, out[t].rank());
    row.max_error = std::max(row.max_error,
                             approximation_error(tiles[t].view(), out[t]));
  }
  return row;
}

// fill_block() over the lower-triangle tiles of st-3D-exp (θ = (1, 0.1,
// 0.5)) at tile size b, best of `reps`; then, untimed, every generated
// entry against its scalar-libm value.
GenerateRow generate(int n, int b, int reps) {
  const auto prob = bench::st3d_exp(n);
  const int nt = (n + b - 1) / b;
  const auto extent = [&](int t) { return std::min(b, n - t * b); };
  dense::Matrix tile(b, b);
  const auto fill = [&](int i, int j) {
    auto v = tile.block(0, 0, extent(i), extent(j));
    prob.fill_block(i * b, j * b, v);
    return v;
  };
  const double seconds = best_of(reps, [&] {
    WallTimer w;
    for (int i = 0; i < nt; ++i)
      for (int j = 0; j <= i; ++j) fill(i, j);
    return w.seconds();
  });
  const auto& pts = prob.points();
  long long entries = 0;
  double worst = 0.0;
  for (int i = 0; i < nt; ++i) {
    for (int j = 0; j <= i; ++j) {
      const auto v = fill(i, j);
      entries += static_cast<long long>(v.rows()) * v.cols();
      for (int c = 0; c < v.cols(); ++c) {
        for (int r = 0; r < v.rows(); ++r) {
          const std::size_t gi = static_cast<std::size_t>(i * b + r);
          const std::size_t gj = static_cast<std::size_t>(j * b + c);
          double want = std::exp(-(stars::distance(pts[gi], pts[gj]) / 0.1));
          if (gi == gj) want += prob.nugget();
          worst = std::max(worst, std::abs(v(r, c) - want) / want);
        }
      }
    }
  }
  return {n, b, entries, seconds, worst};
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

  // ------------------------------------------------- generate (STARS-H) ----
  std::vector<GenerateRow> gen_rows;
  std::printf("\ngenerate (st-3D-exp lower triangle, b = 128, 1 thread)\n");
  std::printf("%6s %10s %12s %14s\n", "n", "seconds", "Mentries/s",
              "max_rel_diff");
  for (const int n : {2048, 4096}) {
    const GenerateRow row = generate(n, 128, 5);
    gen_rows.push_back(row);
    std::printf("%6d %10.4f %12.1f %14.3e\n", row.n, row.seconds,
                row.entries / row.seconds / 1e6, row.max_rel_diff);
  }

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

  // ------------------------------------------- compress over a tile set ----
  std::vector<CompressSetRow> set_rows;
  const int set_n = scale == "small" ? 1024 : 2048;
  std::printf("\ncompress_set (st-3D-exp N = %d off-diagonal tiles, b = 128, "
              "1 thread, %d runs)\n", set_n, kSetReps);
  std::printf("%8s %6s %10s %10s %10s %9s %8s %10s\n", "tol", "tiles",
              "median_s", "q1_s", "q3_s", "rank_sum", "rank_max", "max_error");
  for (const RankPin& pin : kRankPins) {
    if (pin.n != set_n) continue;
    const CompressSetRow row = compress_set(pin);
    set_rows.push_back(row);
    std::printf("%8.0e %6d %10.4f %10.4f %10.4f %9lld %8d %10.3e\n", pin.tol,
                row.tiles, row.median_s, row.q1_s, row.q3_s, row.rank_sum,
                row.rank_max, row.max_error);
    std::fflush(stdout);
  }

  // -------------------------------------------------- recompress micro ----
  std::vector<RecompressRow> recompress_rows;
  std::printf("\nrecompress (rank-inflated factor, tol %.0e)\n", tol);
  std::printf("%6s %10s %8s %9s %10s\n", "b", "ms", "rank_in", "rank_out",
              "error");
  for (const int b : tile_sizes) {
    const auto tile = prob.block(b, 0, b, b);
    const auto f0 = compress::compress(tile.view(), acc);
    if (!f0) continue;
    const LowRankFactor fat = inflate(*f0);
    LowRankFactor f;
    // Each rep pays one factor copy (recompression is in-place); the copy
    // is O(b·k) against the O(b·k²) round, so the floor is representative.
    const double ms = best_of(5, [&] {
      f = fat;
      WallTimer w;
      recompress(f, acc);
      return w.milliseconds();
    });
    const dense::Matrix before = fat.to_dense();
    const double error = dense::frob_diff(before.view(), f.to_dense().view());
    recompress_rows.push_back({b, ms, fat.rank(), f.rank(), error});
    std::printf("%6d %10.4f %8d %9d %10.3e\n", b, ms, fat.rank(), f.rank(),
                error);
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
  std::fprintf(f, "  \"generate\": [\n");
  for (std::size_t i = 0; i < gen_rows.size(); ++i) {
    const GenerateRow& r = gen_rows[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"b\": %d, \"entries\": %lld, "
                 "\"seconds\": %.4f, \"entries_per_s\": %.4e, "
                 "\"max_rel_diff\": %.3e, \"bound\": %.1e}%s\n",
                 r.n, r.b, r.entries, r.seconds, r.entries / r.seconds,
                 r.max_rel_diff, kGenerateBound,
                 i + 1 < gen_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"compress\": [\n");
  for (std::size_t i = 0; i < compress_rows.size(); ++i) {
    const CompressRow& r = compress_rows[i];
    std::fprintf(f,
                 "    {\"b\": %d, \"ms\": %.4f, \"rank\": %d, "
                 "\"error\": %.3e}%s\n",
                 r.b, r.ms, r.rank, r.error,
                 i + 1 < compress_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"compress_set\": [\n");
  for (std::size_t i = 0; i < set_rows.size(); ++i) {
    const CompressSetRow& r = set_rows[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"b\": 128, \"tol\": %.0e, \"tiles\": %d, "
                 "\"runs\": %d, \"median_s\": %.4f, \"q1_s\": %.4f, "
                 "\"q3_s\": %.4f, \"rank_sum\": %lld, \"rank_max\": %d, "
                 "\"pin_rank_sum\": %lld, \"pin_rank_max\": %d, "
                 "\"max_error\": %.3e}%s\n",
                 r.pin.n, r.pin.tol, r.tiles, kSetReps, r.median_s, r.q1_s,
                 r.q3_s, r.rank_sum, r.rank_max, r.pin.rank_sum,
                 r.pin.rank_max, r.max_error,
                 i + 1 < set_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"recompress\": [\n");
  for (std::size_t i = 0; i < recompress_rows.size(); ++i) {
    const RecompressRow& r = recompress_rows[i];
    std::fprintf(f,
                 "    {\"b\": %d, \"ms\": %.4f, \"rank_in\": %d, "
                 "\"rank_out\": %d, \"error\": %.3e}%s\n",
                 r.b, r.ms, r.rank_in, r.rank_out, r.error,
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
  for (const GenerateRow& r : gen_rows) {
    if (r.max_rel_diff <= kGenerateBound) continue;
    std::fprintf(stderr,
                 "FAIL: generate n=%d: max relative difference %.3e > %.1e\n",
                 r.n, r.max_rel_diff, kGenerateBound);
    ++bad;
  }
  for (const CompressRow& r : compress_rows) {
    if (r.rank < 0 || r.error <= tol) continue;
    std::fprintf(stderr, "FAIL: compress b=%d: error %.3e > tol %.0e\n",
                 r.b, r.error, tol);
    ++bad;
  }
  for (const CompressSetRow& r : set_rows) {
    if (r.rank_sum != r.pin.rank_sum || r.rank_max != r.pin.rank_max) {
      std::fprintf(stderr,
                   "FAIL: compress_set n=%d tol %.0e: rank sum/max %lld/%d, "
                   "pinned %lld/%d\n",
                   r.pin.n, r.pin.tol, r.rank_sum, r.rank_max,
                   r.pin.rank_sum, r.pin.rank_max);
      ++bad;
    }
    if (r.max_error <= r.pin.tol) continue;
    std::fprintf(stderr,
                 "FAIL: compress_set n=%d tol %.0e: tile error %.3e > tol\n",
                 r.pin.n, r.pin.tol, r.max_error);
    ++bad;
  }
  for (const RecompressRow& r : recompress_rows) {
    if (r.error <= tol) continue;
    std::fprintf(stderr, "FAIL: recompress b=%d: error %.3e > tol %.0e\n",
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
