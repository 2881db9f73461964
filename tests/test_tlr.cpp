// Unit tests for ptlr::tlr — tiles, TLR matrix container.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <tuple>

#include "dense/util.hpp"
#include "tlr/io.hpp"
#include "tlr/tile.hpp"
#include "tlr/tlr_matrix.hpp"

using namespace ptlr;
using namespace ptlr::tlr;

// gtest prints a parameter through PrintTo (and ctest names each case by
// that text); without one an enum class prints as its raw bytes.
namespace ptlr::stars {
void PrintTo(ProblemKind kind, std::ostream* os) { *os << to_string(kind); }
}  // namespace ptlr::stars

// ---------------------------------------------------------------- Tile ----

TEST(Tile, DenseBasics) {
  dense::Matrix m(8, 8);
  m(3, 2) = 5.0;
  Tile t = Tile::make_dense(std::move(m));
  EXPECT_TRUE(t.is_dense());
  EXPECT_EQ(t.rows(), 8);
  EXPECT_EQ(t.rank(), 8);
  EXPECT_EQ(t.elements(), 64u);
  EXPECT_DOUBLE_EQ(t.to_dense()(3, 2), 5.0);
  EXPECT_THROW((void)t.lr(), ptlr::Error);
}

TEST(Tile, LowRankBasics) {
  Rng rng(1);
  dense::Matrix a = dense::random_lowrank(16, 16, 3, 1.0, rng);
  auto f = compress::compress(a.view(), {1e-10, 1 << 30});
  ASSERT_TRUE(f);
  Tile t = Tile::make_lowrank(std::move(*f));
  EXPECT_TRUE(t.is_lowrank());
  EXPECT_EQ(t.rank(), 3);
  EXPECT_EQ(t.elements(), 2u * 16u * 3u);
  EXPECT_LT(dense::frob_diff(t.to_dense().view(), a.view()), 1e-9);
  EXPECT_THROW((void)t.dense_data(), ptlr::Error);
}

TEST(Tile, DensifyRoundTrip) {
  Rng rng(2);
  dense::Matrix a = dense::random_lowrank(12, 12, 4, 1.0, rng);
  auto f = compress::compress(a.view(), {1e-10, 1 << 30});
  Tile t = Tile::make_lowrank(std::move(*f));
  t.densify();
  EXPECT_TRUE(t.is_dense());
  EXPECT_LT(dense::frob_diff(t.dense_data().view(), a.view()), 1e-9);
  t.densify();  // idempotent
  EXPECT_TRUE(t.is_dense());
}

TEST(Tile, CompressToSucceedsAndFails) {
  Rng rng(3);
  Tile lowrank = Tile::make_dense(dense::random_lowrank(20, 20, 4, 1.0, rng));
  EXPECT_TRUE(lowrank.compress_to({1e-9, 10}));
  EXPECT_TRUE(lowrank.is_lowrank());
  dense::Matrix full(20, 20);
  dense::fill_uniform(full.view(), rng);
  Tile dense_tile = Tile::make_dense(std::move(full));
  EXPECT_FALSE(dense_tile.compress_to({1e-12, 5}));
  EXPECT_TRUE(dense_tile.is_dense());
}

// ----------------------------------------------------------- TlrMatrix ----

namespace {

stars::CovarianceProblem test_problem(int n, std::uint64_t seed = 7) {
  // Correlation length scaled to laptop-size point sets (see DESIGN.md).
  return stars::make_st3d_matern(n, 1.0, 0.5, 0.5, seed, 1e-1);
}

}  // namespace

TEST(TlrMatrix, GeometryAndIndexing) {
  TlrMatrix m(100, 32);  // uneven last tile: 32+32+32+4
  EXPECT_EQ(m.nt(), 4);
  EXPECT_EQ(m.tile_rows(0), 32);
  EXPECT_EQ(m.tile_rows(3), 4);
  EXPECT_EQ(m.row_offset(2), 64);
  EXPECT_THROW((void)m.at(0, 1), ptlr::Error);  // upper triangle
}

TEST(TlrMatrix, FromProblemFormatsFollowBand) {
  auto prob = test_problem(192);
  auto m = TlrMatrix::from_problem(prob, 48, {1e-4, 24}, 2);
  EXPECT_EQ(m.nt(), 4);
  for (int i = 0; i < m.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      if (i - j < 2) {
        EXPECT_TRUE(m.at(i, j).is_dense());
      }
    }
  EXPECT_EQ(m.band_size(), 2);
}

TEST(TlrMatrix, ToDenseMatchesProblem) {
  auto prob = test_problem(128);
  auto m = TlrMatrix::from_problem(prob, 32, {1e-8, 16}, 1);
  auto full = m.to_dense();
  auto exact = prob.block(0, 0, 128, 128);
  EXPECT_LT(dense::frob_diff(full.view(), exact.view()),
            1e-7 * dense::frob_norm(exact.view()) + 1e-6);
}

TEST(TlrMatrix, DensifyBandRegeneratesExactly) {
  auto prob = test_problem(128);
  auto m = TlrMatrix::from_problem(prob, 32, {1e-2, 16}, 1);
  m.densify_band(2, &prob);
  EXPECT_EQ(m.band_size(), 2);
  for (int i = 1; i < m.nt(); ++i) {
    ASSERT_TRUE(m.at(i, i - 1).is_dense());
    auto exact = prob.block(m.row_offset(i), m.row_offset(i - 1),
                            m.tile_rows(i), m.tile_rows(i - 1));
    // Regenerated, not decompressed: matches the operator to machine eps.
    EXPECT_LT(dense::frob_diff(m.at(i, i - 1).dense_data().view(),
                               exact.view()),
              1e-13);
  }
}

TEST(TlrMatrix, RankStatsCoverOffDiagonalLowRankTiles) {
  auto prob = test_problem(256);
  auto m = TlrMatrix::from_problem(prob, 32, {1e-3, 16}, 1);
  auto s = m.rank_stats();
  EXPECT_GT(s.max, 0);
  EXPECT_LE(s.min, s.avg);
  EXPECT_LE(s.avg, s.max);
  EXPECT_LE(s.max, 16);
}

TEST(TlrMatrix, SubdiagMaxrankDecaysAwayFromDiagonal) {
  auto prob = test_problem(512);
  auto m = TlrMatrix::from_problem(prob, 64, {1e-6, 32}, 1);
  auto sub = m.subdiag_maxrank();
  ASSERT_EQ(static_cast<int>(sub.size()), m.nt());
  // Diagonal is dense (rank b); far sub-diagonals should have lower max
  // rank than the first one — the decay the auto-tuner exploits.
  EXPECT_EQ(sub[0], 64);
  EXPECT_LE(sub.back(), sub[1]);
}

TEST(TlrMatrix, RankFieldMarksUpperTriangleAbsent) {
  auto prob = test_problem(128);
  auto m = TlrMatrix::from_problem(prob, 32, {1e-3, 16}, 1);
  auto field = m.rank_field();
  EXPECT_EQ(field.size(), 16u);
  EXPECT_LT(field[1], 0.0);                 // (0,1) above diagonal
  EXPECT_DOUBLE_EQ(field[0], 32.0);         // dense diagonal tile
}

TEST(TlrMatrix, FootprintExactVersusStatic) {
  auto prob = test_problem(512);
  auto m = TlrMatrix::from_problem(prob, 64, {1e-3, 32}, 1);
  const auto exact = m.footprint_elements();
  const auto fixed = m.static_footprint_elements(32);
  // The paper's Fig. 8: exact-rank allocation is far below the static
  // maxrank descriptor.
  EXPECT_LT(exact, fixed);
  // And the static model is itself below fully dense storage.
  EXPECT_LT(fixed, static_cast<std::size_t>(512) * 512);
}

TEST(TlrMatrix, UnevenTailTilesCompressToo) {
  auto prob = test_problem(150);  // 150 = 4 tiles of 40 + tail of 30... 40*3+30
  auto m = TlrMatrix::from_problem(prob, 40, {1e-3, 20}, 1);
  EXPECT_EQ(m.nt(), 4);
  EXPECT_EQ(m.tile_rows(3), 30);
  auto full = m.to_dense();
  EXPECT_EQ(full.rows(), 150);
}

TEST(TlrMatrix, ParallelBuildMatchesSequential) {
  auto prob = test_problem(256, 59);
  auto seq = TlrMatrix::from_problem(prob, 32, {1e-4, 1 << 30}, 2);
  auto par = TlrMatrix::from_problem_parallel(prob, 32, {1e-4, 1 << 30}, 4,
                                              2);
  ASSERT_EQ(seq.nt(), par.nt());
  for (int i = 0; i < seq.nt(); ++i)
    for (int j = 0; j <= i; ++j)
      EXPECT_EQ(tile_to_bytes(seq.at(i, j)), tile_to_bytes(par.at(i, j)))
          << i << "," << j;
}

TEST(TlrMatrix, ParallelBuildSingleThreadWorks) {
  auto prob = test_problem(100, 60);
  auto m = TlrMatrix::from_problem_parallel(prob, 40, {1e-3, 20}, 1);
  EXPECT_EQ(m.nt(), 3);
}

// Every off-band tile of every problem preset meets the per-tile bound
// compress() documents, ‖A_ij − U·Vᵀ‖_F ≤ tol, against the operator's own
// block; band tiles hold the operator exactly.
class FromProblemSweep
    : public ::testing::TestWithParam<std::tuple<stars::ProblemKind, double>> {
};

TEST_P(FromProblemSweep, EveryTileMeetsToleranceAgainstOperator) {
  const auto [kind, tol] = GetParam();
  const int n = 200, b = 48;  // uneven: tail tile of 8 rows
  const auto prob = stars::make_problem(kind, n, 61);
  const auto m = TlrMatrix::from_problem(prob, b, {tol, 1 << 30}, 1);
  int lowrank = 0;
  for (int i = 0; i < m.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      const auto exact = prob.block(m.row_offset(i), m.row_offset(j),
                                    m.tile_rows(i), m.tile_rows(j));
      const auto& t = m.at(i, j);
      const double err =
          dense::frob_diff(t.to_dense().view(), exact.view());
      if (t.is_lowrank()) {
        ++lowrank;
        EXPECT_LE(err, tol) << stars::to_string(kind) << " tile " << i
                            << "," << j << " rank " << t.rank();
      } else {
        EXPECT_EQ(err, 0.0) << stars::to_string(kind) << " tile " << i
                            << "," << j;
      }
    }
  EXPECT_EQ(lowrank, m.nt() * (m.nt() - 1) / 2) << stars::to_string(kind);
}

INSTANTIATE_TEST_SUITE_P(
    KindsTolerances, FromProblemSweep,
    ::testing::Combine(::testing::Values(stars::ProblemKind::kSt3DExp,
                                         stars::ProblemKind::kSt2DExp,
                                         stars::ProblemKind::kSt3DSqExp,
                                         stars::ProblemKind::kSt3DMatern,
                                         stars::ProblemKind::kElectrostatics3D,
                                         stars::ProblemKind::kElectrodynamics3D),
                       ::testing::Values(1e-4, 1e-8)));

// The parallel build is bitwise equal to the sequential one at every
// thread count, uneven tail tile and wider band included.
class ParallelBuildSweep : public ::testing::TestWithParam<int> {};

TEST_P(ParallelBuildSweep, BitwiseEqualsSequential) {
  const int threads = GetParam();
  auto prob = test_problem(250, 63);  // 7 tiles of 32 + a tail of 26
  auto seq = TlrMatrix::from_problem(prob, 32, {1e-6, 1 << 30}, 2);
  auto par = TlrMatrix::from_problem_parallel(prob, 32, {1e-6, 1 << 30},
                                              threads, 2);
  ASSERT_EQ(seq.nt(), par.nt());
  EXPECT_EQ(par.band_size(), 2);
  for (int i = 0; i < seq.nt(); ++i)
    for (int j = 0; j <= i; ++j)
      EXPECT_EQ(tile_to_bytes(seq.at(i, j)), tile_to_bytes(par.at(i, j)))
          << threads << " threads, tile " << i << "," << j;
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelBuildSweep,
                         ::testing::Values(1, 2, 3, 4));

// -------------------------------------------------- serialization ----

#include <cstdio>

TEST(TlrIo, SaveLoadRoundTrip) {
  auto prob = test_problem(192, 81);
  auto m = TlrMatrix::from_problem(prob, 48, {1e-4, 24}, 2);
  const std::string path = "/tmp/ptlr_io_test.bin";
  save(m, path);
  auto loaded = load(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.n(), m.n());
  ASSERT_EQ(loaded.nt(), m.nt());
  EXPECT_EQ(loaded.tile_size(), m.tile_size());
  EXPECT_EQ(loaded.band_size(), m.band_size());
  EXPECT_DOUBLE_EQ(loaded.accuracy().tol, 1e-4);
  EXPECT_EQ(loaded.accuracy().maxrank, 24);
  for (int i = 0; i < m.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      EXPECT_EQ(loaded.at(i, j).is_dense(), m.at(i, j).is_dense());
      EXPECT_EQ(loaded.at(i, j).rank(), m.at(i, j).rank());
      EXPECT_LT(dense::frob_diff(loaded.at(i, j).to_dense().view(),
                                 m.at(i, j).to_dense().view()),
                1e-14);
    }
}

TEST(TlrIo, LoadRejectsGarbage) {
  const std::string path = "/tmp/ptlr_io_garbage.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a matrix";
  }
  EXPECT_THROW(load(path), ptlr::Error);
  std::remove(path.c_str());
}

TEST(TlrIo, LoadMissingFileThrows) {
  EXPECT_THROW(load("/nonexistent/ptlr.bin"), ptlr::Error);
}

TEST(TlrIo, TileByteRoundTrip) {
  Rng rng(31);
  dense::Matrix d(12, 9);
  dense::fill_uniform(d.view(), rng);
  Tile dense_tile = Tile::make_dense(d);
  auto bytes = tile_to_bytes(dense_tile);
  Tile back = tile_from_bytes(bytes);
  ASSERT_TRUE(back.is_dense());
  EXPECT_LT(dense::frob_diff(back.dense_data().view(), d.view()), 0.0 + 1e-15);

  auto lr = dense::random_lowrank(16, 16, 4, 1.0, rng);
  auto f = compress::compress(lr.view(), {1e-10, 1 << 30});
  Tile lr_tile = Tile::make_lowrank(std::move(*f));
  Tile back2 = tile_from_bytes(tile_to_bytes(lr_tile));
  ASSERT_TRUE(back2.is_lowrank());
  EXPECT_EQ(back2.rank(), 4);
  EXPECT_LT(dense::frob_diff(back2.to_dense().view(), lr_tile.to_dense().view()),
            1e-14);
}

TEST(TlrIo, TileFromGarbageThrows) {
  EXPECT_THROW(tile_from_bytes(std::vector<char>{'x', 'y'}), ptlr::Error);
}

// tile_byte_size is the exact-size contract of the send path: the buffer
// is reserved once, so the size accounting and the actual serialization
// must agree to the byte (capacity == size means no insert-driven growth).
TEST(TlrIo, TileByteSizeAccountsExactly) {
  Rng rng(33);
  dense::Matrix d(12, 9);
  dense::fill_uniform(d.view(), rng);
  const Tile dense_tile = Tile::make_dense(d);

  auto lr = dense::random_lowrank(16, 16, 4, 1.0, rng);
  auto f = compress::compress(lr.view(), {1e-10, 1 << 30});
  ASSERT_TRUE(f.has_value());
  const Tile lr_tile = Tile::make_lowrank(std::move(*f));

  for (const Tile* t : {&dense_tile, &lr_tile}) {
    const std::vector<char> bytes = tile_to_bytes(*t);
    EXPECT_EQ(bytes.size(), tile_byte_size(*t));
    EXPECT_EQ(bytes.capacity(), bytes.size());
  }
}

// ------------------------------------------- corruption fuzzing ----

// Deterministic corruption fuzzer over save() output, exercising the
// robustness contract documented in tlr/io.cpp: corrupt input of every
// kind — truncation, single-bit flips, oversized size fields — must
// surface as ptlr::Error or load cleanly. Never a crash, and never an
// allocation driven by an unvalidated size field (the ASan leg would
// catch the former; the header bounds checks prevent the latter).

namespace {

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A small saved matrix with both dense and low-rank tiles.
std::vector<char> saved_matrix_bytes(const std::string& path) {
  auto prob = test_problem(48, 7);
  auto m = TlrMatrix::from_problem(prob, 16, {1e-4, 8}, 1);
  save(m, path);
  return slurp(path);
}

void poke_u64(std::vector<char>& bytes, std::size_t off, std::uint64_t v) {
  ASSERT_LE(off + sizeof(v), bytes.size());
  std::memcpy(bytes.data() + off, &v, sizeof(v));
}

}  // namespace

TEST(TlrIoFuzz, EveryTruncationThrows) {
  const std::string path = "/tmp/ptlr_fuzz_trunc.bin";
  const std::vector<char> good = saved_matrix_bytes(path);
  ASSERT_GT(good.size(), 64u);
  // The format has no trailing slack: every strict prefix is missing bytes
  // the loader needs, so every truncation must throw (and must not OOM on
  // a tile-table allocation the file cannot back).
  for (std::size_t len = 0; len < good.size();
       len += (len < 64 ? 1 : 7)) {  // every header byte, then stride
    spit(path, {good.begin(), good.begin() + static_cast<long>(len)});
    EXPECT_THROW(load(path), ptlr::Error) << "prefix length " << len;
  }
  std::remove(path.c_str());
}

TEST(TlrIoFuzz, SingleBitFlipsAreContained) {
  const std::string path = "/tmp/ptlr_fuzz_flip.bin";
  const std::vector<char> good = saved_matrix_bytes(path);
  long long threw = 0, loaded = 0;
  for (std::size_t pos = 0; pos < good.size();
       pos += (pos < 64 ? 1 : 5)) {
    for (const int bit : {0, 6}) {
      std::vector<char> bad = good;
      bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
      spit(path, bad);
      try {
        auto m = load(path);  // flips inside payload doubles load fine
        (void)m;
        ++loaded;
      } catch (const ptlr::Error&) {
        ++threw;
      }
    }
  }
  // Both outcomes occur: structural flips throw, payload flips survive.
  EXPECT_GT(threw, 0);
  EXPECT_GT(loaded, 0);
  std::remove(path.c_str());
}

TEST(TlrIoFuzz, OversizedSizeFieldsThrowBeforeAllocating) {
  const std::string path = "/tmp/ptlr_fuzz_hdr.bin";
  const std::vector<char> good = saved_matrix_bytes(path);
  // Header layout: magic(0) version(8) n(16) b(24) band(32) tol(40)
  // maxrank(48); the first tile record (tag, rows, cols) starts at 56.
  const auto expect_reject = [&](std::size_t off, std::uint64_t v) {
    std::vector<char> bad = good;
    poke_u64(bad, off, v);
    spit(path, bad);
    EXPECT_THROW(load(path), ptlr::Error)
        << "offset " << off << " value " << v;
  };
  expect_reject(16, 0);                  // n = 0
  expect_reject(16, 1ull << 40);         // n huge → tile table would explode
  expect_reject(24, 0);                  // b = 0
  expect_reject(24, 1ull << 40);         // b > n
  expect_reject(32, 1ull << 40);         // band > nt
  expect_reject(48, 0);                  // maxrank = 0
  expect_reject(48, 1ull << 40);         // maxrank huge
  expect_reject(64, 1ull << 23);         // tile rows: payload exceeds file
  expect_reject(64, 1ull << 60);         // tile rows: fails the dim bound
  std::remove(path.c_str());
}

TEST(TlrIoFuzz, TileBufferCorruptionIsContained) {
  Rng rng(23);
  auto lr = dense::random_lowrank(16, 16, 4, 1.0, rng);
  auto f = compress::compress(lr.view(), {1e-10, 1 << 30});
  const std::vector<char> good = tile_to_bytes(
      Tile::make_lowrank(std::move(*f)));

  // Every strict prefix is missing needed bytes.
  for (std::size_t len = 0; len < good.size(); ++len) {
    const std::vector<char> cut(good.begin(),
                                good.begin() + static_cast<long>(len));
    EXPECT_THROW(tile_from_bytes(cut), ptlr::Error) << "prefix " << len;
  }
  // Bit flips: Error or clean parse, nothing else. Oversized dimension
  // fields must be bounded by the buffer before any allocation.
  long long threw = 0, parsed = 0;
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    std::vector<char> bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    try {
      auto t = tile_from_bytes(bad);
      (void)t;
      ++parsed;
    } catch (const ptlr::Error&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0);
  EXPECT_GT(parsed, 0);
}

// -------------------------------------------- general TLR matrices ----

#include "tlr/general_matrix.hpp"

namespace {

stars::CrossCovariance test_cross(int m, int n, std::uint64_t seed = 5) {
  Rng rng(seed);
  auto rows = stars::grid3d(m, rng);
  auto cols = stars::grid3d(n, rng);
  return {std::move(rows), std::move(cols),
          std::make_shared<stars::Matern>(1.0, 0.4, 0.5)};
}

}  // namespace

TEST(TlrGeneralMatrix, CompressionMatchesOperator) {
  auto op = test_cross(150, 200);
  auto a = TlrGeneralMatrix::from_cross_covariance(op, 50, {1e-6, 1 << 30});
  EXPECT_EQ(a.mt(), 3);
  EXPECT_EQ(a.nt(), 4);
  auto full = a.to_dense();
  auto exact = op.block(0, 0, 150, 200);
  EXPECT_LT(dense::frob_diff(full.view(), exact.view()),
            1e-4 * dense::frob_norm(exact.view()));
  // Looser accuracy must shrink the footprint (absolute savings vs dense
  // need tile sizes beyond unit-test scale; see the kriging example).
  auto loose = TlrGeneralMatrix::from_cross_covariance(op, 50,
                                                       {1e-2, 1 << 30});
  EXPECT_LT(loose.footprint_elements(), a.footprint_elements());
}

TEST(TlrGeneralMatrix, ApplyMatchesDenseGemv) {
  auto op = test_cross(120, 90, 7);
  auto a = TlrGeneralMatrix::from_cross_covariance(op, 40, {1e-8, 1 << 30});
  auto exact = op.block(0, 0, 120, 90);
  Rng rng(3);
  std::vector<double> x(90), want(120, 0.0);
  for (auto& v : x) v = rng.gaussian();
  dense::gemv(dense::Trans::N, 1.0, exact.view(), x.data(), 0.0,
              want.data());
  auto y = a.apply(x);
  double d = 0, nrm = 0;
  for (int i = 0; i < 120; ++i) {
    d += (y[i] - want[i]) * (y[i] - want[i]);
    nrm += want[i] * want[i];
  }
  EXPECT_LT(std::sqrt(d / nrm), 1e-6);
}

TEST(TlrGeneralMatrix, ApplyTransposeMatchesDenseGemv) {
  auto op = test_cross(80, 130, 9);
  auto a = TlrGeneralMatrix::from_cross_covariance(op, 40, {1e-8, 1 << 30});
  auto exact = op.block(0, 0, 80, 130);
  Rng rng(4);
  std::vector<double> x(80), want(130, 0.0);
  for (auto& v : x) v = rng.gaussian();
  dense::gemv(dense::Trans::T, 1.0, exact.view(), x.data(), 0.0,
              want.data());
  auto y = a.apply_transpose(x);
  double d = 0, nrm = 0;
  for (int i = 0; i < 130; ++i) {
    d += (y[i] - want[i]) * (y[i] - want[i]);
    nrm += want[i] * want[i];
  }
  EXPECT_LT(std::sqrt(d / nrm), 1e-6);
}

// Cross-covariance grids of every orientation, uneven edges included:
// each tile meets the per-tile bound against the operator's block.
struct CrossShape {
  int m, n, b;
};

void PrintTo(const CrossShape& s, std::ostream* os) {
  *os << s.m << "x" << s.n << " b=" << s.b;
}

class CrossCovarianceSweep : public ::testing::TestWithParam<CrossShape> {};

TEST_P(CrossCovarianceSweep, EveryTileMeetsToleranceAgainstOperator) {
  const auto [m, n, b] = GetParam();
  const double tol = 1e-6;
  auto op = test_cross(m, n, 17);
  auto a = TlrGeneralMatrix::from_cross_covariance(op, b, {tol, 1 << 30});
  EXPECT_EQ(a.mt(), (m + b - 1) / b);
  EXPECT_EQ(a.nt(), (n + b - 1) / b);
  for (int i = 0; i < a.mt(); ++i)
    for (int j = 0; j < a.nt(); ++j) {
      const auto exact = op.block(a.row_offset(i), a.col_offset(j),
                                  a.tile_rows(i), a.tile_cols(j));
      EXPECT_LE(dense::frob_diff(a.at(i, j).to_dense().view(), exact.view()),
                tol)
          << "tile " << i << "," << j << " of " << m << "x" << n;
    }
}

namespace {

std::string cross_shape_case_name(
    const ::testing::TestParamInfo<CrossShape>& p) {
  return std::to_string(p.param.m) + "x" + std::to_string(p.param.n) + "_b" +
         std::to_string(p.param.b);
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(Shapes, CrossCovarianceSweep,
                         ::testing::Values(CrossShape{100, 100, 50},
                                           CrossShape{120, 80, 40},
                                           CrossShape{80, 120, 40},
                                           CrossShape{97, 61, 32}),
                         cross_shape_case_name);

TEST(TlrGeneralMatrix, SizeMismatchThrows) {
  auto op = test_cross(60, 60, 13);
  auto a = TlrGeneralMatrix::from_cross_covariance(op, 30, {1e-5, 1 << 30});
  EXPECT_THROW(a.apply(std::vector<double>(59)), ptlr::Error);
  EXPECT_THROW(a.apply_transpose(std::vector<double>(61)), ptlr::Error);
}

TEST(TlrMatrix, SparsifyOffdiagonalCompressesDenseFactorTiles) {
  auto prob = test_problem(192, 105);
  // Loose accuracy so the small test tiles compress below b^2 elements.
  auto a = TlrMatrix::from_problem(prob, 48, {5e-2, 1 << 30}, 3);
  const auto before = a.footprint_elements();
  const int switched = a.sparsify_offdiagonal({5e-2, 1 << 30});
  EXPECT_GT(switched, 0);
  EXPECT_LT(a.footprint_elements(), before);
  EXPECT_EQ(a.band_size(), 1);
  // Content preserved within the threshold (absolute Frobenius per tile).
  auto exact = prob.block(0, 0, 192, 192);
  EXPECT_LT(dense::frob_diff(a.to_dense().view(), exact.view()), 0.5);
}

TEST(TlrMatrix, SparsifyLeavesDiagonalDense) {
  auto prob = test_problem(96, 107);
  auto a = TlrMatrix::from_problem(prob, 32, {5e-2, 1 << 30}, 2);
  a.sparsify_offdiagonal({5e-2, 1 << 30});
  for (int i = 0; i < a.nt(); ++i) EXPECT_TRUE(a.at(i, i).is_dense());
}
