// ptlr_compress — generate a covariance problem, compress it to TLR form
// in parallel, and save it for later runs.
//
//   ptlr_compress --n 4096 --b 256 --tol 1e-4 [--kind st-3D-exp]
//                 [--threads 2] [--band 1] [--out sigma.ptlr] [--seed 42]
#include <cstdio>
#include <string>

#include "args.hpp"
#include "common/timer.hpp"
#include "tlr/io.hpp"
#include "tlr/tlr_matrix.hpp"

using namespace ptlr;

namespace {

stars::ProblemKind parse_kind(const std::string& s) {
  if (s == "st-3D-exp") return stars::ProblemKind::kSt3DExp;
  if (s == "st-2D-exp") return stars::ProblemKind::kSt2DExp;
  if (s == "st-3D-sqexp") return stars::ProblemKind::kSt3DSqExp;
  if (s == "st-3D-matern") return stars::ProblemKind::kSt3DMatern;
  if (s == "electrostatics") return stars::ProblemKind::kElectrostatics3D;
  if (s == "electrodynamics") return stars::ProblemKind::kElectrodynamics3D;
  throw Error("unknown problem kind: " + s);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tools::Args args(
        argc, argv, {"n", "b", "tol", "threads", "band", "kind", "out", "seed"});
    const int n = args.integer("n", 4096);
    const int b = args.integer("b", 256);
    const double tol = args.real("tol", 1e-4);
    const int threads = args.integer("threads", 2);
    const int band = args.integer("band", 1);
    const auto kind = parse_kind(args.str("kind", "st-3D-exp"));
    const auto out = args.str("out", "sigma.ptlr");
    const auto seed = static_cast<std::uint64_t>(args.integer("seed", 42));

    std::printf("generating %s, N = %d ...\n",
                stars::to_string(kind).c_str(), n);
    auto prob = stars::make_problem(kind, n, seed);
    WallTimer t;
    auto m = tlr::TlrMatrix::from_problem_parallel(prob, b, {tol, 1 << 30},
                                                   threads, band);
    const double secs = t.seconds();
    const auto s = m.rank_stats();
    std::printf("compressed in %.2f s (%d threads): NT = %d, ranks "
                "min/avg/max = %d/%.1f/%d\n",
                secs, threads, m.nt(), s.min, s.avg, s.max);
    std::printf("footprint %.1f MB (dense would be %.1f MB)\n",
                static_cast<double>(m.footprint_elements()) * 8 / 1e6,
                static_cast<double>(n) * n * 8 / 1e6);
    tlr::save(m, out);
    std::printf("saved to %s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
