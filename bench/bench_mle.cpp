// Machine-readable θ₂ fit benchmark (BENCH_mle.json): core::fit_theta2 on
// ptlr_bench's mle_fit problem at several noise seeds, each fit checked
// against a grid of the likelihood around its answer.
//
// Problem: st-3D Matérn ν = 0.5 (exponential), θ = (1, 0.1, 0.5), nugget
// 1e-2, geometry seed 42, N = 1536, b = 128, tol 1e-6, band picked while
// compressing, 2 worker threads; z is simulated exactly (dense Cholesky of
// the true Σ) from each noise seed. The optimizer runs at its defaults.
//
// One row per noise seed (1-10 and 42): the evaluations the fit spent,
// θ̂₂, ℓ(θ̂₂) and the fit's wall time, the median of three fits of the same
// z. On a 4-core VM the first second of a process ran about 1.6× slow, so
// the first row can read high there. Each row then evaluates ℓ on a
// 17-point check grid over log θ̂₂ ± 2·rel_tol at spacing rel_tol/4. The
// bench exits 1 after writing its JSON when, for any row, the grid's
// argmax lies farther than rel_tol plus one spacing from log θ̂₂, the fit
// took more evaluations than a golden-section search of the same bracket
// (11 at the defaults), or the three fits differ in any bit.
//
// PTLR_BENCH_SCALE=small runs N = 512 with seeds 1, 2 and 42.
//
// Usage: bench_mle [out.json]   (default BENCH_mle.json)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/knobs.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/mle.hpp"
#include "dense/lapack.hpp"

using namespace ptlr;

namespace {

constexpr double kTheta2 = 0.1;
constexpr std::uint64_t kGeometrySeed = 42;
constexpr double kNugget = 1e-2;
constexpr int kTile = 128;
constexpr int kThreads = 2;
constexpr double kTol = 1e-6;
constexpr int kGridHalf = 8;  // 2·kGridHalf + 1 points
constexpr int kFits = 3;      // fits per row; fit_s is their median

stars::CovarianceProblem problem(int n, double theta2) {
  return stars::make_st3d_matern(n, 1.0, theta2, 0.5, kGeometrySeed,
                                 kNugget);
}

/// z = L·w for the dense Cholesky factor L of the true Σ and w ~ N(0, I)
/// from `seed`: the observations ptlr_bench's mle_fit simulates.
std::vector<double> simulate_observations(int n, std::uint64_t seed) {
  dense::Matrix l = problem(n, kTheta2).block(0, 0, n, n);
  dense::potrf(dense::Uplo::Lower, l.view());
  Rng rng(seed);
  std::vector<double> w(static_cast<std::size_t>(n));
  for (auto& v : w) v = rng.gaussian();
  std::vector<double> z(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i)
      z[static_cast<std::size_t>(i)] +=
          l(i, j) * w[static_cast<std::size_t>(j)];
  return z;
}

/// Evaluations a golden-section search takes to shrink [lo, hi] to
/// rel_tol in log θ₂: two interior points, then one per 0.618× step.
int golden_section_evals(const core::MleOptimizerConfig& cfg) {
  const double steps = std::log(cfg.rel_tol / std::log(cfg.hi / cfg.lo)) /
                       std::log(0.6180339887498949);
  return 2 + static_cast<int>(std::ceil(steps));
}

struct Row {
  std::uint64_t seed = 0;
  core::MleFit fit;
  double fit_s = 0.0;
  int grid_argmax = 0;  ///< offset of the grid's best point, in spacings
  double grid_ll = 0.0;
};

std::string manifest_json(int n, const core::MleOptimizerConfig& cfg) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\": %u, \"threads\": %d, \"problem\": {\"kernel\": "
      "\"st3d_matern\", \"nu\": 0.5, \"n\": %d, \"b\": %d, \"tol\": %g, "
      "\"theta\": [1, %g, 0.5], \"nugget\": %g, \"geometry_seed\": %llu}, "
      "\"optimizer\": {\"lo\": %g, \"hi\": %g, \"rel_tol\": %g, "
      "\"max_evals\": %d}, \"knobs\": {",
      std::thread::hardware_concurrency(), kThreads, n, kTile, kTol, kTheta2,
      kNugget, static_cast<unsigned long long>(kGeometrySeed), cfg.lo, cfg.hi,
      cfg.rel_tol, cfg.max_evals);
  std::string s = buf;
  bool first = true;
  for (const knobs::Knob& k : knobs::table()) {
    s += (first ? "\"" : ", \"") + std::string(k.name) + "\": \"" +
         knobs::text(k.name) + "\"";
    first = false;
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_mle.json";
  const char* scale_env = std::getenv("PTLR_BENCH_SCALE");
  const std::string scale =
      scale_env != nullptr ? scale_env : std::string("default");
  const bool small = scale == "small";
  const int n = small ? 512 : 1536;
  const std::vector<std::uint64_t> seeds =
      small ? std::vector<std::uint64_t>{1, 2, 42}
            : std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42};

  core::MleOptimizerConfig cfg;
  cfg.geometry_seed = kGeometrySeed;
  cfg.nugget = kNugget;
  cfg.tile_size = kTile;
  cfg.cholesky.acc = {kTol, 1 << 30};
  cfg.cholesky.band_size = 0;
  cfg.cholesky.nthreads = kThreads;
  const int max_evals = golden_section_evals(cfg);
  const double spacing = cfg.rel_tol / 4;
  const double max_distance = cfg.rel_tol + spacing;

  std::printf("bench_mle: fit_theta2 at N = %d, b = %d, tol %g, %d threads\n",
              n, kTile, kTol, kThreads);
  std::printf("%6s %6s %20s %16s %8s %10s\n", "seed", "evals", "theta2_hat",
              "loglik", "fit_s", "grid_du");
  std::vector<Row> rows;
  bool passed = true;
  for (const std::uint64_t seed : seeds) {
    Row r;
    r.seed = seed;
    const auto z = simulate_observations(n, seed);
    std::vector<double> fit_s;
    bool same = true;
    for (int k = 0; k < kFits; ++k) {
      WallTimer t;
      const core::MleFit fit = core::fit_theta2(z, cfg);
      fit_s.push_back(t.seconds());
      if (k == 0) r.fit = fit;
      same = same && fit.path == r.fit.path;
    }
    std::sort(fit_s.begin(), fit_s.end());
    r.fit_s = fit_s[kFits / 2];

    const double u_hat = std::log(r.fit.theta2);
    for (int k = -kGridHalf; k <= kGridHalf; ++k) {
      const double ll =
          core::evaluate_mle(problem(n, std::exp(u_hat + k * spacing)), z,
                             kTile, cfg.cholesky)
              .log_likelihood;
      if (k == -kGridHalf || ll > r.grid_ll) {
        r.grid_ll = ll;
        r.grid_argmax = k;
      }
    }
    const double du = r.grid_argmax * spacing;
    std::printf("%6llu %6d %20.17g %16.6f %8.4f %10.4f\n",
                static_cast<unsigned long long>(seed), r.fit.evaluations,
                r.fit.theta2, r.fit.log_likelihood, r.fit_s, du);
    if (std::abs(du) > max_distance) {
      std::fprintf(stderr,
                   "FAIL: seed %llu: the check grid peaks %.4f from log "
                   "theta2_hat, beyond %.4f\n",
                   static_cast<unsigned long long>(seed), du, max_distance);
      passed = false;
    }
    if (!same) {
      std::fprintf(stderr, "FAIL: seed %llu: fits of one z differ\n",
                   static_cast<unsigned long long>(seed));
      passed = false;
    }
    if (r.fit.evaluations > max_evals) {
      std::fprintf(stderr, "FAIL: seed %llu: %d evaluations, more than %d\n",
                   static_cast<unsigned long long>(seed), r.fit.evaluations,
                   max_evals);
      passed = false;
    }
    rows.push_back(r);
  }

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_mle: cannot write %s\n", out_path);
    return 2;
  }
  std::fprintf(f, "{\n  \"bench\": \"mle\",\n  \"scale\": \"%s\",\n",
               scale.c_str());
  std::fprintf(f, "  \"manifest\": %s,\n", manifest_json(n, cfg).c_str());
  std::fprintf(f,
               "  \"gate\": {\"max_evaluations\": %d, \"grid_points\": %d, "
               "\"grid_spacing\": %g, \"max_grid_du\": %g, \"passed\": %s},\n",
               max_evals, 2 * kGridHalf + 1, spacing, max_distance,
               passed ? "true" : "false");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"seed\": %llu, \"evaluations\": %d, \"theta2_hat\": "
                 "%.17g, \"log_likelihood\": %.17g, \"fit_s\": %.4f, "
                 "\"grid_du\": %.4f, \"grid_log_likelihood\": %.17g}%s\n",
                 static_cast<unsigned long long>(r.seed), r.fit.evaluations,
                 r.fit.theta2, r.fit.log_likelihood, r.fit_s,
                 r.grid_argmax * spacing, r.grid_ll,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%s)\n", out_path, passed ? "passed" : "FAILED");
  return passed ? 0 : 1;
}
