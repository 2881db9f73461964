// Ablation — compression backends: CPQR+SVD (PTLR default), randomized
// SVD, adaptive cross approximation, and the adaptive randomized engine
// (compress/adaptive.hpp) on real st-3D-exp tiles: time, resulting rank,
// and achieved error at a fixed threshold. STARS-H/HiCMA expose the same
// choice; this quantifies the tradeoff on this hardware.
#include <iostream>

#include "bench_util.hpp"
#include "compress/methods.hpp"

using namespace ptlr;
using namespace ptlr::compress;

int main() {
  const auto sc = bench::scale();
  bench::header("Ablation", "compression backends on covariance tiles");
  std::printf("st-3D-exp, N = %d, accuracy %.0e; tile = first sub-diagonal "
              "block\n\n", sc.n, sc.tol);

  auto prob = bench::st3d_exp(sc.n);
  Table t({"tile size b", "method", "time (ms)", "rank", "error"});
  for (int b : {128, 256, 512}) {
    auto tile = prob.block(b, 0, b, b);  // first sub-diagonal tile
    for (Method m : {Method::kCpqrSvd, Method::kRsvd, Method::kAca,
                     Method::kAdaptiveRsvd}) {
      Rng rng(9);
      WallTimer w;
      auto f = compress_with(m, tile.view(), {sc.tol, 1 << 30}, rng);
      const double ms = w.milliseconds();
      if (!f) {
        t.row().cell(static_cast<long long>(b))
            .cell(std::string(to_string(m))).cell(ms, 4)
            .cell(std::string("-")).cell(std::string("cap exceeded"));
        continue;
      }
      t.row().cell(static_cast<long long>(b))
          .cell(std::string(to_string(m))).cell(ms, 4)
          .cell(static_cast<long long>(f->rank()))
          .cell(approximation_error(tile.view(), *f), 3);
    }
  }
  t.print(std::cout);
  std::printf("\nReading: CPQR+SVD yields the minimal rank at this scale; "
              "ACA on a dense tile keeps\nits residual explicitly (O(b²k) "
              "work) so that it meets the threshold, and\nlands within a "
              "column or two of that rank; RSVD pays for the Jacobi SVD of "
              "its\nsketch here — with an "
              "optimized bidiagonal SVD it would lead at large b, the\n"
              "regime HiCMA uses it in. ADAPTIVE-RSVD sizes its sketch from "
              "the stochastic\nresidual estimate instead of a fixed "
              "oversample, so its cost tracks the\ntile's true rank "
              "(bench_compression.cpp times the hot recompression path\n"
              "where that pays off).\n");
  return 0;
}
