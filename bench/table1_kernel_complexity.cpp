// Table I — arithmetic complexity of the ten (region)-kernels: the model
// column is the paper's closed form; the measured column is the flop count
// the kernels actually charge (dense BLAS flops incl. recompression), at a
// representative (b, k). Dense kernels match exactly; low-rank kernels
// match to the constants of the implementation, whose (5)/(6)-GEMM sums
// into a dense accumulator and recompresses it by a truncated CPQR.
#include <functional>
#include <iostream>

#include "bench_util.hpp"
#include "compress/compress.hpp"
#include "dense/util.hpp"
#include "hcore/kernels.hpp"

using namespace ptlr;

namespace {

tlr::Tile lr_tile(int b, int k, std::uint64_t seed) {
  Rng rng(seed);
  auto m = dense::random_lowrank(b, b, k, 1e-9, rng);
  auto f = compress::compress(m.view(), {1e-10, 1 << 30});
  return tlr::Tile::make_lowrank(std::move(*f));
}

tlr::Tile dense_tile(int b, std::uint64_t seed) {
  Rng rng(seed);
  dense::Matrix m(b, b);
  dense::fill_uniform(m.view(), rng);
  return tlr::Tile::make_dense(std::move(m));
}

tlr::Tile spd_tile(int b, std::uint64_t seed) {
  Rng rng(seed);
  return tlr::Tile::make_dense(dense::random_spd(b, rng));
}

double measure(const std::function<void()>& fn) {
  flops::Region r;
  fn();
  return r.flops();
}

}  // namespace

int main() {
  const int b = 256, k = 32;
  bench::header("Table I", "kernel arithmetic complexity: model vs measured");
  std::printf("b = %d, k = %d\n\n", b, k);

  const compress::Accuracy acc{1e-10, 1 << 30};
  Table t({"ID", "(group)-kernel", "Table I model", "measured flops",
           "measured/model"});
  int id = 0;
  auto row = [&](const char* name, flops::Kernel kernel, double meas) {
    const double model = flops::model(kernel, b, k);
    t.row().cell(static_cast<long long>(id++)).cell(std::string(name))
        .cell(model, 4).cell(meas, 4).cell(meas / model, 3);
  };

  {
    auto a = spd_tile(b, 1);
    row("(1)-POTRF", flops::Kernel::kPotrf1,
        measure([&] { hcore::potrf(a); }));
  }
  {
    auto l = spd_tile(b, 2);
    hcore::potrf(l);
    auto x = dense_tile(b, 3);
    row("(1)-TRSM", flops::Kernel::kTrsm1,
        measure([&] { hcore::trsm(l, x); }));
    auto xl = lr_tile(b, k, 4);
    row("(4)-TRSM", flops::Kernel::kTrsm4,
        measure([&] { hcore::trsm(l, xl); }));
  }
  {
    auto a = dense_tile(b, 5);
    auto c = spd_tile(b, 6);
    row("(1)-SYRK", flops::Kernel::kSyrk1,
        measure([&] { hcore::syrk(a, c); }));
    auto al = lr_tile(b, k, 7);
    row("(3)-SYRK", flops::Kernel::kSyrk3,
        measure([&] { hcore::syrk(al, c); }));
  }
  {
    auto a = dense_tile(b, 8), bm = dense_tile(b, 9), c = dense_tile(b, 10);
    row("(1)-GEMM", flops::Kernel::kGemm1,
        measure([&] { hcore::gemm(a, bm, c, acc); }));
    auto al = lr_tile(b, k, 11);
    row("(2)-GEMM", flops::Kernel::kGemm2,
        measure([&] { hcore::gemm(al, bm, c, acc); }));
    auto bl = lr_tile(b, k, 12);
    row("(3)-GEMM", flops::Kernel::kGemm3,
        measure([&] { hcore::gemm(al, bl, c, acc); }));
    auto cl = lr_tile(b, k, 13);
    row("(5)-GEMM", flops::Kernel::kGemm5,
        measure([&] { hcore::gemm(al, bm, cl, acc); }));
    auto cl2 = lr_tile(b, k, 14);
    row("(6)-GEMM", flops::Kernel::kGemm6,
        measure([&] { hcore::gemm(al, bl, cl2, acc); }));
  }
  t.print(std::cout);
  std::printf("\nShape check vs paper: the dense kernels (1)-* match the "
              "model exactly; the\nO(b·k²)+O(k³) low-rank kernels match to "
              "the implementation constants of the\nCPQR recompression "
              "(the paper's 34–36·b·k² + 157·k³ were likewise measured\n"
              "constants of HCORE's implementation).\n");
  return 0;
}
