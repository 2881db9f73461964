// ptlr_info — inspect a saved TLR matrix: geometry, rank statistics and
// heat map, footprints, and the BAND_SIZE the auto-tuner would choose.
//
//   ptlr_info --in sigma.ptlr [--heatmap 1]
#include <cstdio>
#include <iostream>

#include "args.hpp"
#include "common/table.hpp"
#include "core/band_tuner.hpp"
#include "tlr/io.hpp"

using namespace ptlr;

int main(int argc, char** argv) {
  try {
    const tools::Args args(argc, argv, {"in", "heatmap"});
    const auto path = args.str("in", "sigma.ptlr");
    auto m = tlr::load(path);
    std::printf("%s: N = %d, tile size = %d, NT = %d, band = %d, "
                "accuracy = %.1e (maxrank cap %d)\n",
                path.c_str(), m.n(), m.tile_size(), m.nt(), m.band_size(),
                m.accuracy().tol, m.accuracy().maxrank);
    const auto s = m.rank_stats();
    std::printf("off-diagonal ranks: min/avg/max = %d/%.1f/%d "
                "(ratio_maxrank %.2f)\n",
                s.min, s.avg, s.max,
                static_cast<double>(s.max) / m.tile_size());
    std::printf("footprint: %.1f MB exact | %.1f MB static maxrank | "
                "%.1f MB dense\n",
                static_cast<double>(m.footprint_elements()) * 8 / 1e6,
                static_cast<double>(
                    m.static_footprint_elements(m.tile_size() / 2)) *
                    8 / 1e6,
                static_cast<double>(m.n()) * m.n() * 8 / 1e6);

    Table t({"subdiag d", "maxrank"});
    const auto sub = m.subdiag_maxrank();
    for (int d = 0; d < std::min(m.nt(), 16); ++d)
      t.row().cell(static_cast<long long>(d))
          .cell(static_cast<long long>(sub[static_cast<std::size_t>(d)]));
    t.print(std::cout);

    if (m.band_size() == 1) {
      auto tuned = core::tune_band_size(core::RankMap::from_matrix(m));
      std::printf("Algorithm 1 would pick BAND_SIZE = %d\n",
                  tuned.band_size);
    }
    if (args.integer("heatmap", 0) != 0) {
      std::cout << ascii_heatmap(m.nt(), m.rank_field(), m.tile_size());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
