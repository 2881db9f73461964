// Fig. 8 — impact of dynamic memory designation:
//   (left)  memory footprint of the static maxrank descriptor
//           (PaRSEC-HiCMA-Prev) vs exact-rank allocation
//           (PaRSEC-HiCMA-New) as the matrix grows,
//   (right) cost of a fresh allocation of 2·k·b doubles (what a tile's
//           exact-rank U/V storage costs) vs the TLR GEMM that would
//           trigger the reallocation.
#include <iostream>

#include "bench_util.hpp"
#include "compress/compress.hpp"
#include "dense/util.hpp"
#include "hcore/kernels.hpp"
#include "obs/report.hpp"

using namespace ptlr;

int main() {
  const auto sc = bench::scale();
  bench::header("Fig. 8", "dynamic memory designation");

  // Left: footprint sweep. Prev budgets every off-diagonal tile at
  // 2*b*maxrank with maxrank = b/2 (the descriptor cap of Section III-B).
  std::printf("(left) footprint: static maxrank descriptor vs exact ranks\n");
  std::printf("st-3D-exp, b = %d, accuracy %.0e, maxrank = b/2 = %d\n\n",
              sc.b, sc.tol, sc.b / 2);
  Table t({"N", "dense (MB)", "Prev static (MB)", "New exact (MB)",
           "saving Prev/New"});
  for (int n : {1024, 2048, 4096, sc.n * 2}) {
    auto prob = bench::st3d_exp(n);
    auto a = tlr::TlrMatrix::from_problem(prob, sc.b, {sc.tol, 1 << 30}, 1);
    const double mb = 8.0 / 1024.0 / 1024.0;
    const double dense_mb = double(n) * n * mb;
    const double prev_mb =
        static_cast<double>(a.static_footprint_elements(sc.b / 2)) * mb;
    const double new_mb = static_cast<double>(a.footprint_elements()) * mb;
    t.row().cell(static_cast<long long>(n)).cell(dense_mb, 4)
        .cell(prev_mb, 4).cell(new_mb, 4).cell(prev_mb / new_mb, 3);
    if (n == sc.n * 2) {
      // Cross-check the largest row against the obs-layer reporter (the
      // same numbers, as the structured artifact tools consume).
      std::printf("\n%s\n",
                  obs::to_ascii(obs::memory_report(a, sc.b / 2)).c_str());
    }
  }
  t.print(std::cout);

  // Right: allocation vs TLR GEMM cost across the observed rank range.
  std::printf("\n(right) memory (re)allocation vs TLR GEMM cost, b = %d\n\n",
              sc.b);
  Table r({"rank k", "alloc 2kb (us)", "TLR GEMM (us)", "gemm/alloc"});
  auto lr_tile = [&](int k, std::uint64_t seed) {
    Rng rng(seed);
    auto m = dense::random_lowrank(sc.b, sc.b, k, 1e-9, rng);
    auto f = compress::compress(m.view(), {1e-10, 1 << 30});
    return tlr::Tile::make_lowrank(std::move(*f));
  };
  for (int k : {8, 16, 32, 64, 128}) {
    const std::size_t elems = 2ull * static_cast<std::size_t>(k) * sc.b;
    WallTimer ta;
    double sink = 0.0;
    {
      std::vector<double> fresh(elems, 0.0);  // cold allocation + touch
      sink = fresh[elems / 2];
    }
    const double alloc_us = ta.seconds() * 1e6 + sink * 0.0;
    tlr::Tile a = lr_tile(k, 100 + k), b = lr_tile(k, 200 + k),
              c = lr_tile(k, 300 + k);
    WallTimer tg;
    hcore::gemm(a, b, c, {1e-9, 1 << 30});
    const double gemm_us = tg.seconds() * 1e6;
    r.row().cell(static_cast<long long>(k)).cell(alloc_us, 4)
        .cell(gemm_us, 4).cell(gemm_us / alloc_us, 3);
  }
  r.print(std::cout);
  std::printf("\nShape check vs paper: the exact-rank footprint saving grows"
              " with N (paper:\nup to 44x at 10M+; the asymptotic saving is "
              "maxrank/avgrank), and memory\n(re)allocation is orders of "
              "magnitude cheaper than the TLR GEMM whose rank\ngrowth "
              "triggers it — so reallocating on recompression is essentially"
              " free.\n");
  return 0;
}
