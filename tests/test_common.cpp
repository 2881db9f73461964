// Unit tests for ptlr::common — Morton codes, flop models, table output,
// wall-clock timing — and the CLI tools' flag parser built on it.
#include <gtest/gtest.h>

#include <charconv>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "args.hpp"
#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/morton.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace m = ptlr::morton;
namespace fl = ptlr::flops;

TEST(Morton, Encode2RoundTrip) {
  for (std::uint32_t x : {0u, 1u, 5u, 1023u, 65535u, 4000000u}) {
    for (std::uint32_t y : {0u, 2u, 77u, 9999u, 65535u}) {
      std::uint32_t rx = 0, ry = 0;
      m::decode2(m::encode2(x, y), rx, ry);
      EXPECT_EQ(rx, x);
      EXPECT_EQ(ry, y);
    }
  }
}

TEST(Morton, Encode3RoundTrip) {
  for (std::uint32_t x : {0u, 1u, 31u, 1024u, 100000u, 2097151u}) {
    for (std::uint32_t y : {0u, 3u, 512u, 2097151u}) {
      for (std::uint32_t z : {0u, 7u, 123456u}) {
        std::uint32_t rx = 0, ry = 0, rz = 0;
        m::decode3(m::encode3(x, y, z), rx, ry, rz);
        EXPECT_EQ(rx, x);
        EXPECT_EQ(ry, y);
        EXPECT_EQ(rz, z);
      }
    }
  }
}

TEST(Morton, Encode2KnownValues) {
  // Interleave: x=0b11, y=0b01 -> bits x0 y0 x1 y1 = 1,1,1,0 -> 0b0111.
  EXPECT_EQ(m::encode2(3, 1), 0b0111u);
  EXPECT_EQ(m::encode2(0, 0), 0u);
  EXPECT_EQ(m::encode2(1, 0), 1u);
  EXPECT_EQ(m::encode2(0, 1), 2u);
}

TEST(Morton, Encode3KnownValues) {
  EXPECT_EQ(m::encode3(1, 0, 0), 1u);
  EXPECT_EQ(m::encode3(0, 1, 0), 2u);
  EXPECT_EQ(m::encode3(0, 0, 1), 4u);
  EXPECT_EQ(m::encode3(1, 1, 1), 7u);
}

TEST(Morton, EncodePreservesLocality) {
  // Points adjacent in space should mostly be close in Morton order:
  // check the key of (x, y) and (x+1, y) differ less than distant points
  // on average over a small grid (sanity, not a strict property).
  double near = 0, far = 0;
  int cnt = 0;
  for (std::uint32_t x = 0; x < 16; ++x)
    for (std::uint32_t y = 0; y < 16; ++y) {
      near += static_cast<double>(m::encode2(x + 1, y)) -
              static_cast<double>(m::encode2(x, y)) > 0
                  ? 1
                  : 0;
      far += static_cast<double>(m::encode2(x + 64, y)) >
                     static_cast<double>(m::encode2(x, y))
                 ? 1
                 : 0;
      ++cnt;
    }
  EXPECT_GT(near / cnt, 0.9);
  EXPECT_GT(far / cnt, 0.9);
}

TEST(Morton, QuantizeClamps) {
  EXPECT_EQ(m::quantize(-0.5, 10), 0u);
  EXPECT_EQ(m::quantize(0.0, 10), 0u);
  EXPECT_EQ(m::quantize(1.0, 10), 1023u);
  EXPECT_EQ(m::quantize(2.0, 10), 1023u);
  EXPECT_EQ(m::quantize(0.5, 1), 1u);
}

TEST(Flops, TableIModels) {
  const std::int64_t b = 100, k = 10;
  EXPECT_DOUBLE_EQ(fl::model(fl::Kernel::kPotrf1, b, k), 1e6 / 3.0);
  EXPECT_DOUBLE_EQ(fl::model(fl::Kernel::kTrsm1, b, k), 1e6);
  EXPECT_DOUBLE_EQ(fl::model(fl::Kernel::kTrsm4, b, k), 1e5);
  EXPECT_DOUBLE_EQ(fl::model(fl::Kernel::kSyrk1, b, k), 1e6);
  EXPECT_DOUBLE_EQ(fl::model(fl::Kernel::kSyrk3, b, k),
                   2.0 * b * b * k + 4.0 * b * k * k);
  EXPECT_DOUBLE_EQ(fl::model(fl::Kernel::kGemm1, b, k), 2e6);
  EXPECT_DOUBLE_EQ(fl::model(fl::Kernel::kGemm2, b, k), 4.0 * b * b * k);
  EXPECT_DOUBLE_EQ(fl::model(fl::Kernel::kGemm3, b, k),
                   2.0 * b * b * k + 4.0 * b * k * k);
  EXPECT_DOUBLE_EQ(fl::model(fl::Kernel::kGemm5, b, k),
                   34.0 * b * k * k + 157.0 * k * k * k);
  EXPECT_DOUBLE_EQ(fl::model(fl::Kernel::kGemm6, b, k),
                   36.0 * b * k * k + 157.0 * k * k * k);
}

TEST(Flops, LowRankKernelsCheaperThanDenseBelowThreshold) {
  // The premise of Fig. 2a / Section V: LR GEMM beats dense GEMM only while
  // the rank is small relative to b.
  const std::int64_t b = 2700;
  EXPECT_LT(fl::model(fl::Kernel::kGemm6, b, 20),
            fl::model(fl::Kernel::kGemm1, b, 20));
  EXPECT_GT(fl::model(fl::Kernel::kGemm6, b, b / 2),
            fl::model(fl::Kernel::kGemm1, b, b / 2));
}

TEST(Flops, CounterAccumulatesAndResets) {
  fl::Counter::reset();
  fl::Counter::add(123.0);
  fl::Counter::add(877.0);
  EXPECT_DOUBLE_EQ(fl::Counter::total(), 1000.0);
  fl::Region r;
  fl::Counter::add(500.0);
  EXPECT_DOUBLE_EQ(r.flops(), 500.0);
  fl::Counter::reset();
  EXPECT_DOUBLE_EQ(fl::Counter::total(), 0.0);
}

TEST(Timer, ReadingsAreMonotoneNonNegative) {
  // Regression lock for the steady_clock requirement (also enforced at
  // compile time by the static_assert in timer.hpp): repeated readings
  // never go backwards, which a wall-clock base could not guarantee
  // across NTP steps.
  ptlr::WallTimer t;
  double prev = t.seconds();
  EXPECT_GE(prev, 0.0);
  for (int i = 0; i < 10000; ++i) {
    const double now = t.seconds();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(Timer, MeasuresElapsedTimeAndResets) {
  ptlr::WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);  // sleep may overshoot, never undershoot by 25%
  EXPECT_LT(s, 10.0);
  EXPECT_NEAR(t.milliseconds(), t.seconds() * 1e3, 1.0);
  t.reset();
  EXPECT_LT(t.seconds(), s);
}

TEST(Rng, Deterministic) {
  ptlr::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRange) {
  ptlr::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Table, PrintsAlignedRowsAndCsv) {
  ptlr::Table t({"name", "value"});
  t.row().cell(std::string("alpha")).cell(1.5);
  t.row().cell(std::string("b")).cell(static_cast<long long>(42));
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("42"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("name,value"), std::string::npos);
  EXPECT_NE(csv.str().find("alpha,1.5"), std::string::npos);
}

TEST(Table, CellBeforeRowThrows) {
  ptlr::Table t({"x"});
  EXPECT_THROW(t.cell(1.0), ptlr::Error);
}

TEST(Heatmap, RendersTriangle) {
  const int nt = 3;
  std::vector<double> v(nt * nt, -1.0);
  v[0] = 0.0;
  v[3] = 5.0;   // (1,0)
  v[4] = 10.0;  // (1,1)
  const std::string hm = ptlr::ascii_heatmap(nt, v, 10.0);
  // 3 lines and blanks above the diagonal.
  EXPECT_EQ(std::count(hm.begin(), hm.end(), '\n'), 3);
  EXPECT_EQ(hm[1], ' ');
}

TEST(Error, CheckMacroThrowsWithMessage) {
  try {
    PTLR_CHECK(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const ptlr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
  }
}

TEST(Error, NumericalErrorCarriesInfo) {
  ptlr::NumericalError e("potrf failed", 3);
  EXPECT_EQ(e.info(), 3);
}

// ---------------------------------------------- tool flag parsing ----

namespace {

// Parses argv as a tool that reads --n and --tol.
ptlr::tools::Args parse(std::vector<std::string> argv) {
  argv.insert(argv.begin(), "tool");
  std::vector<char*> ptrs;
  for (auto& a : argv) ptrs.push_back(a.data());
  return {static_cast<int>(ptrs.size()), ptrs.data(), {"n", "tol"}};
}

}  // namespace

TEST(ToolArgs, UnknownFlagThrowsNamingIt) {
  try {
    parse({"--n", "4", "--methd", "rsvd"});
    FAIL() << "a misspelt flag was accepted";
  } catch (const ptlr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("--methd"), std::string::npos);
  }
}

TEST(ToolArgs, MalformedNumberThrowsNamingIt) {
  const auto ok = parse({"--n", "1024", "--tol", "1e-6"});
  EXPECT_EQ(ok.integer("n", 0), 1024);
  EXPECT_DOUBLE_EQ(ok.real("tol", 0.0), 1e-6);
  EXPECT_THROW((void)parse({"--n", "4k"}).integer("n", 0), ptlr::Error);
  EXPECT_THROW((void)parse({"--n", ""}).integer("n", 0), ptlr::Error);
  EXPECT_THROW((void)parse({"--n", "99999999999"}).integer("n", 0),
               ptlr::Error);
  EXPECT_THROW((void)parse({"--tol", "1e-6x"}).real("tol", 0.0),
               ptlr::Error);
  try {
    (void)parse({"--n", "4k"}).integer("n", 0);
  } catch (const ptlr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("4k"), std::string::npos);
  }
}

TEST(ToolArgs, MissingValueThrowsNamingTheFlag) {
  try {
    parse({"--tol", "1e-6", "--n"});
    FAIL() << "a flag without a value was accepted";
  } catch (const ptlr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
  }
}

TEST(ToolArgs, BareValueThrows) {
  EXPECT_THROW(parse({"1024"}), ptlr::Error);
  EXPECT_THROW(parse({"-n", "1024"}), ptlr::Error);
}

TEST(ToolArgs, AbsentFlagsTakeDefaults) {
  const auto args = parse({});
  EXPECT_FALSE(args.has("n"));
  EXPECT_EQ(args.integer("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.real("tol", 0.5), 0.5);
  EXPECT_EQ(args.str("n", "none"), "none");
}

TEST(ToolArgs, IntegerRejectsFractionalValue) {
  EXPECT_THROW((void)parse({"--n", "4.5"}).integer("n", 0), ptlr::Error);
  EXPECT_THROW((void)parse({"--n", "1e3"}).integer("n", 0), ptlr::Error);
  EXPECT_THROW((void)parse({"--tol", "1e999"}).real("tol", 0.0),
               ptlr::Error);
}

TEST(ToolArgs, SignedAndExponentValuesParse) {
  const auto args = parse({"--n", "-3", "--tol", "2.5E-3"});
  EXPECT_EQ(args.integer("n", 0), -3);
  EXPECT_DOUBLE_EQ(args.real("tol", 0.0), 2.5e-3);
  EXPECT_EQ(parse({"--n", "+12"}).integer("n", 0), 12);
}

TEST(ToolArgs, FreeParsersNameTheCallersFlag) {
  // ptlr-launch keeps its own flag loop (it stops at "--") and calls the
  // free parsers with the flag it is reading; the error must name that
  // flag and the offending text.
  EXPECT_EQ(ptlr::tools::parse_int("--respawn", "3"), 3);
  EXPECT_DOUBLE_EQ(ptlr::tools::parse_real("--timeout", "2.5"), 2.5);
  const std::vector<std::pair<std::string, std::string>> bad{
      {"--n", "2x"},         {"--grace-ms", ""},
      {"--respawn", "1.5"},  {"--respawn-backoff-ms", "4294967296"},
      {"--timeout", "12s"},  {"--timeout", "1e999"}};
  for (const auto& [flag, text] : bad) {
    try {
      if (flag == "--timeout")
        (void)ptlr::tools::parse_real(flag, text);
      else
        (void)ptlr::tools::parse_int(flag, text);
      ADD_FAILURE() << flag << " accepted '" << text << "'";
    } catch (const ptlr::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(flag), std::string::npos) << what;
      EXPECT_NE(what.find(text), std::string::npos) << what;
    }
  }
}

TEST(ToolArgs, ParseRealReadsToCharsOutputExactly) {
  // Callers hand the launcher a --timeout written by std::to_chars
  // (shortest round-trip form); reading it back must give the same double.
  for (const double v : {12.0, 0.1, 150.25, 1.0 / 3.0, 2.5e-7, 1e300,
                         123456789.125}) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    ASSERT_EQ(r.ec, std::errc{});
    const std::string text(buf, r.ptr);
    const double back = ptlr::tools::parse_real("--timeout", text);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(double)), 0) << text;
  }
}
