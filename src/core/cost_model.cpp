#include "core/cost_model.hpp"

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "compress/compress.hpp"
#include "dense/blas.hpp"
#include "dense/util.hpp"
#include "hcore/kernels.hpp"
#include "tlr/tile.hpp"

namespace ptlr::core {

double CostModel::duration(flops::Kernel kernel, int b, int k) const {
  return duration_flops(flops::model(kernel, b, k),
                        flops::is_dense_class(kernel));
}

KernelRates KernelRates::calibrate(int b, int k) {
  Rng rng(12345);
  KernelRates rates;

  // Dense class: time one representative GEMM.
  {
    dense::Matrix a(b, b), c(b, b);
    dense::fill_uniform(a.view(), rng);
    dense::fill_uniform(c.view(), rng);
    WallTimer t;
    dense::gemm(dense::Trans::N, dense::Trans::T, -1.0, a.view(), a.view(),
                1.0, c.view());
    const double secs = t.seconds();
    if (secs > 0) rates.dense_rate = 2.0 * b * double(b) * b / secs;
  }

  // LR class: time a (6)-GEMM including its recompression, priced as the
  // tuner prices it.
  {
    auto mk = [&](int r) {
      auto m = dense::random_lowrank(b, b, r, 1e-6, rng);
      auto f = compress::compress(m.view(), {1e-9, 1 << 30});
      return tlr::Tile::make_lowrank(std::move(*f));
    };
    tlr::Tile a = mk(k), bt = mk(k), c = mk(k);
    WallTimer t;
    hcore::gemm(a, bt, c, {1e-9, 1 << 30});
    const double secs = t.seconds();
    const hcore::Operand lr{false, k};
    const double f = hcore::gemm_cost(lr, lr, lr, /*last=*/true, b).flops;
    if (secs > 0) rates.lr_rate = f / secs;
  }
  return rates;
}

}  // namespace ptlr::core
