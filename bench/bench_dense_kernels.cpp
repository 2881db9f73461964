// Machine-readable microbenchmark of the dense level-3 substrate.
//
// Sweeps GEMM (NN) / SYRK / TRSM / POTRF over square sizes and times two
// rows per kernel, single-threaded, so the numbers track single-tile kernel
// efficiency, the quantity that gates TLR factorization throughput:
// `naive` calls the unblocked loop on the whole matrix by name
// (dense/unblocked.hpp; for POTRF that is DPOTF2, no recursion), and
// `blocked` calls the public entry, which picks its implementation by size
// (the packed BLIS-style engine above the cutoff, so at n = 64 SYRK, TRSM
// and POTRF run the same loops as `naive`). Two TRSM shapes run: `trsm`
// solves L X = B (Left/Lower/N, the (4)-TRSM's shape) and `trsm_right`
// solves X L^T = B (Right/Lower/T, the (1)-TRSM's and POTRF's panel solve),
// both with m = n.
//
// Output: BENCH_dense_kernels.json (override with PTLR_BENCH_OUT), one
// record per (kernel, variant, n) with seconds and gflops, plus a summary
// of the blocked/naive speedup per kernel and size. Every blocked record
// carries max_rel_err = max|X_blocked - X_naive| / max|X_naive| against the
// naive run on the same inputs; the process exits 1, after writing the
// JSON, when one exceeds kMaxRelErr. PTLR_BENCH_SCALE=small caps the sweep
// at 512 for CI smoke runs; default sweeps 64..2048.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "dense/unblocked.hpp"
#include "dense/util.hpp"

using namespace ptlr::dense;

namespace {

// Blocked and naive differ only in summation order (docs/numerics.md), by
// O(n * eps) relative to the operands' scale on these well-conditioned
// inputs: measured at most 6.2e-15 up to n = 2048. A blocked result
// further off than this is a wrong result, not rounding.
constexpr double kMaxRelErr = 1e-12;

struct Result {
  const char* kernel;
  const char* variant;
  int n;
  double seconds;
  double gflops;
  double max_rel_err;  // blocked rows only; negative on naive rows
};

// max|x - ref| / max|ref| over all entries.
double max_rel_err(ConstMatrixView x, ConstMatrixView ref) {
  double diff = 0.0, scale = 0.0;
  for (int j = 0; j < ref.cols(); ++j)
    for (int i = 0; i < ref.rows(); ++i) {
      diff = std::max(diff, std::abs(x(i, j) - ref(i, j)));
      scale = std::max(scale, std::abs(ref(i, j)));
    }
  return diff / scale;
}

// Best-of-reps wall time for one kernel invocation at size n.
template <typename Setup, typename Run>
double time_best(Setup setup, Run run) {
  // Repeat until ~0.2 s of accumulated runtime (at least twice) and keep
  // the fastest rep; big slow cases run exactly twice.
  double best = 1e300, total = 0.0;
  int reps = 0;
  while ((total < 0.2 || reps < 2) && reps < 50) {
    setup();
    ptlr::WallTimer t;
    run();
    const double s = t.seconds();
    best = std::min(best, s);
    total += s;
    ++reps;
    if (s > 5.0) break;  // one rep is plenty past this point
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_dense_kernels.json";
  if (const char* env = std::getenv("PTLR_BENCH_OUT")) out_path = env;
  if (argc > 1) out_path = argv[1];

  std::vector<int> sizes = {64, 128, 256, 512, 1024, 2048};
  const char* scale_env = std::getenv("PTLR_BENCH_SCALE");
  const std::string scale =
      scale_env != nullptr ? scale_env : std::string("default");
  if (scale == "small") sizes = {64, 128, 256, 512};

  ptlr::Rng rng(1234);
  std::vector<Result> results;

  std::printf("%-10s %-8s %6s %12s %10s %11s\n", "kernel", "variant", "n",
              "seconds", "gflops", "max_rel_err");
  for (const int n : sizes) {
    // Shared operands per size; each timed rep restores its inputs.
    Matrix a(n, n), b(n, n);
    fill_uniform(a.view(), rng);
    fill_uniform(b.view(), rng);
    Matrix spd = random_spd(n, rng);
    Matrix tri = spd;  // well-conditioned lower-triangular factor for TRSM
    potrf(Uplo::Lower, tri.view());
    Matrix work(n, n), naive_out(n, n);

    struct Case {
      const char* kernel;
      double flops;
      std::function<void()> setup;    // restores work's inputs, untimed
      std::function<void()> naive;    // the unblocked loop, by name
      std::function<void()> blocked;  // the public entry
    };
    const double dn = n;
    // The naive GEMM and SYRK accumulate, so every setup zeroes or copies
    // work; beta = 0 also lets the public entries overwrite it. SYRK writes
    // only the lower triangle, and the zeroed rest keeps the two rows
    // comparable over the whole matrix.
    const Case cases[] = {
        {"gemm", 2.0 * dn * dn * dn, [&] { work.fill(0.0); },
         [&] {
           gemm_unblocked(Trans::N, Trans::N, 1.0, a.view(), b.view(),
                          work.view());
         },
         [&] {
           gemm(Trans::N, Trans::N, 1.0, a.view(), b.view(), 0.0,
                work.view());
         }},
        {"syrk", dn * dn * dn, [&] { work.fill(0.0); },
         [&] { syrk_unblocked(-1.0, a.view(), work.view()); },
         [&] {
           syrk(Uplo::Lower, Trans::N, -1.0, a.view(), 0.0, work.view());
         }},
        {"trsm", dn * dn * dn, [&] { copy(b.view(), work.view()); },
         [&] {
           trsm_unblocked(Side::Left, Trans::N, tri.view(), work.view());
         },
         [&] {
           trsm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 1.0,
                tri.view(), work.view());
         }},
        {"trsm_right", dn * dn * dn, [&] { copy(b.view(), work.view()); },
         [&] {
           trsm_unblocked(Side::Right, Trans::T, tri.view(), work.view());
         },
         [&] {
           trsm(Side::Right, Uplo::Lower, Trans::T, Diag::NonUnit, 1.0,
                tri.view(), work.view());
         }},
        {"potrf", dn * dn * dn / 3.0, [&] { copy(spd.view(), work.view()); },
         [&] { potf2(work.view()); },
         [&] { potrf(Uplo::Lower, work.view()); }},
    };
    for (const Case& kc : cases) {
      for (const bool naive : {true, false}) {
        const double secs = time_best(kc.setup, naive ? kc.naive : kc.blocked);
        const double gflops = kc.flops / secs / 1e9;
        double err = -1.0;
        if (naive) {
          copy(work.view(), naive_out.view());
        } else {
          err = max_rel_err(work.view(), naive_out.view());
        }
        results.push_back(
            {kc.kernel, naive ? "naive" : "blocked", n, secs, gflops, err});
        std::printf("%-10s %-8s %6d %12.6f %10.2f", kc.kernel,
                    naive ? "naive" : "blocked", n, secs, gflops);
        if (naive) {
          std::printf("\n");
        } else {
          std::printf(" %11.2e\n", err);
        }
        std::fflush(stdout);
      }
    }
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"dense_kernels\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", scale.c_str());
  std::fprintf(f, "  \"threads\": 1,\n  \"max_rel_err_bound\": %.0e,\n",
               kMaxRelErr);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"variant\": \"%s\", \"n\": %d, "
                 "\"seconds\": %.6e, \"gflops\": %.4f",
                 r.kernel, r.variant, r.n, r.seconds, r.gflops);
    if (r.max_rel_err >= 0.0)
      std::fprintf(f, ", \"max_rel_err\": %.3e", r.max_rel_err);
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedup\": [\n");
  bool first = true;
  for (const Result& r : results) {
    if (std::string(r.variant) != "blocked") continue;
    for (const Result& base : results) {
      if (std::string(base.variant) == "naive" &&
          std::string(base.kernel) == r.kernel && base.n == r.n) {
        std::fprintf(f,
                     "%s    {\"kernel\": \"%s\", \"n\": %d, \"x\": %.2f}",
                     first ? "" : ",\n", r.kernel, r.n,
                     r.gflops / base.gflops);
        first = false;
      }
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  int bad = 0;
  for (const Result& r : results) {
    // !(err <= bound) also fails a NaN.
    if (r.max_rel_err < 0.0 || r.max_rel_err <= kMaxRelErr) continue;
    std::fprintf(stderr, "FAIL: %s n=%d: max_rel_err %.3e > %.0e\n",
                 r.kernel, r.n, r.max_rel_err, kMaxRelErr);
    ++bad;
  }
  return bad == 0 ? 0 : 1;
}
