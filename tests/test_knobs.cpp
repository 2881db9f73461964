// The PTLR_* knob table (common/knobs.hpp) and the readers built on it.
// KnobReaders feeds every numeric knob, and every number inside PTLR_NET,
// PTLR_FAULTS and PTLR_CKPT, through the reader production calls: text
// that is malformed or just outside the range must be an error naming
// the variable. Knobs.EveryRowHasAReader keeps that list complete.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/knobs.hpp"
#include "core/checkpoint.hpp"
#include "core/dist_cholesky.hpp"
#include "net/socket.hpp"
#include "resilience/fault.hpp"
#include "resilience/watchdog.hpp"
#include "runtime/perturb.hpp"
#include "support/scoped_env.hpp"

using namespace ptlr;
using ptlr::testing::ScopedEnv;

namespace {

using Reader = std::function<void(const std::string&)>;

// One number that a production reader parses. `read` puts the text where
// the number goes, sets the environment and calls the reader.
struct NumberCase {
  std::string label;
  std::string knob;  ///< the variable the error must name
  bool real = false;
  std::string valid;                 ///< text the reader accepts
  std::vector<std::string> outside;  ///< text just outside the range
  Reader read;
};

// gtest's name for a case (its bytes by default, which vary run to run).
void PrintTo(const NumberCase& c, std::ostream* os) { *os << c.knob; }

std::string show(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::vector<std::string> int_outside(std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::string> v{lo == 0 ? "-1" : std::to_string(lo - 1)};
  if (hi < std::numeric_limits<std::uint64_t>::max())
    v.push_back(std::to_string(hi + 1));
  return v;
}

std::vector<std::string> real_outside(double lo, double hi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::string> v{show(std::nextafter(lo, -kInf))};
  if (hi < std::numeric_limits<double>::max())
    v.push_back(show(std::nextafter(hi, kInf)));
  return v;
}

// A case for a table row, with the range the table states.
NumberCase row_case(std::string label, const char* knob, std::string valid,
                    Reader read) {
  const knobs::Knob& k = knobs::knob(knob);
  return {std::move(label), knob, false, std::move(valid),
          int_outside(k.min, k.max), std::move(read)};
}

// NetConfig::from_env on a two-rank UDS mesh, with `name` set to `text`.
Reader net_reader(const char* name) {
  return [name](const std::string& text) {
    const ScopedEnv net("PTLR_NET", "uds:/tmp"), rank("PTLR_RANK", "0"),
        size("PTLR_NRANKS", "2");
    const ScopedEnv knob(name, text.c_str());
    (void)net::NetConfig::from_env();
  };
}

Reader fault_reader(const std::string& prefix) {
  return [prefix](const std::string& text) {
    const ScopedEnv faults("PTLR_FAULTS", (prefix + text).c_str());
    (void)resil::FaultConfig::from_env();
  };
}

std::vector<NumberCase> number_cases() {
  std::vector<NumberCase> cases{
      row_case("Rank", "PTLR_RANK", "1", net_reader("PTLR_RANK")),
      row_case("Nranks", "PTLR_NRANKS", "3", net_reader("PTLR_NRANKS")),
      row_case("NetEpoch", "PTLR_EPOCH", "255", net_reader("PTLR_EPOCH")),
      row_case("RecoveryEpoch", "PTLR_EPOCH", "1",
               [](const std::string& text) {
                 const ScopedEnv epoch("PTLR_EPOCH", text.c_str());
                 (void)core::RankRecoveryOptions::from_env();
               }),
      row_case("NetTimeout", "PTLR_NET_TIMEOUT_MS", "15000",
               net_reader("PTLR_NET_TIMEOUT_MS")),
      row_case("NetRejoin", "PTLR_NET_REJOIN_MS", "20000",
               net_reader("PTLR_NET_REJOIN_MS")),
      row_case("PerturbSeed", "PTLR_PERTURB_SEED", "18446744073709551615",
               [](const std::string& text) {
                 const ScopedEnv seed("PTLR_PERTURB_SEED", text.c_str());
                 (void)rt::PerturbConfig::from_env();
               }),
      row_case("Watchdog", "PTLR_WATCHDOG_MS", "30000",
               [](const std::string& text) {
                 const ScopedEnv ms("PTLR_WATCHDOG_MS", text.c_str());
                 (void)resil::WatchdogConfig::from_env();
               }),
      // Numbers inside text knobs, with the ranges their readers state.
      {"NetPort", "PTLR_NET", false, "39310", int_outside(1, 65535),
       [](const std::string& text) {
         const ScopedEnv net("PTLR_NET", ("tcp:127.0.0.1:" + text).c_str()),
             rank("PTLR_RANK", "0"), size("PTLR_NRANKS", "1");
         (void)net::NetConfig::from_env();
       }},
      {"FaultSeed", "PTLR_FAULTS", false, "7",
       int_outside(0, std::numeric_limits<std::uint64_t>::max()),
       fault_reader("")},
      {"FaultSeedKey", "PTLR_FAULTS", false, "7",
       int_outside(0, std::numeric_limits<std::uint64_t>::max()),
       fault_reader("seed=")},
      {"CkptInterval", "PTLR_CKPT", false, "3", int_outside(1, 1000000),
       [](const std::string& text) {
         const ScopedEnv ckpt("PTLR_CKPT", ("every:" + text).c_str());
         (void)core::CheckpointPolicy::from_env();
       }},
  };
  for (const char* key : {"task", "alloc", "poison", "drop", "dup", "kill"})
    cases.push_back({std::string("Fault_") + key, "PTLR_FAULTS", true, "0.5",
                     real_outside(0.0, 1.0),
                     fault_reader(std::string(key) + "=")});
  // A cast to int once read these as rank 0 of 2, and as 1 rank.
  cases[0].outside.push_back("4294967296");
  cases[1].outside.push_back("4294967297");
  return cases;
}

// Every table variable is unset for the test's duration, so a reader sees
// only what its case sets.
class KnobReaders : public ::testing::TestWithParam<NumberCase> {
 protected:
  void SetUp() override {
    for (const knobs::Knob& k : knobs::table())
      cleared_.emplace_back(std::string(k.name), nullptr);
  }

 private:
  std::deque<ScopedEnv> cleared_;
};

TEST_P(KnobReaders, RejectMalformedTextNamingTheVariable) {
  const NumberCase& c = GetParam();
  EXPECT_NO_THROW(c.read(c.valid)) << c.valid;
  std::vector<std::string> bad{" " + c.valid, c.valid + " ", c.valid + "x",
                               "0x10",        "+" + c.valid,
                               c.real ? "1e999" : "99999999999999999999999"};
  bad.insert(bad.end(), c.outside.begin(), c.outside.end());
  if (c.real) bad.insert(bad.end(), {"nan", "inf"});
  for (const std::string& text : bad) {
    try {
      c.read(text);
      ADD_FAILURE() << c.knob << " accepted '" << text << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.knob), std::string::npos)
          << "'" << text << "': " << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table, KnobReaders, ::testing::ValuesIn(number_cases()),
    [](const ::testing::TestParamInfo<NumberCase>& param) {
      return param.param.label;
    });

}  // namespace

TEST(Knobs, EveryRowHasAReader) {
  // Knobs.FlagAndPlainTextKnobs reads the rows without numbers.
  std::set<std::string> covered{"PTLR_TRACE", "PTLR_TRACE_FILE",
                                "PTLR_CKPT_DIR"};
  for (const NumberCase& c : number_cases()) covered.insert(c.knob);
  for (const knobs::Knob& k : knobs::table())
    EXPECT_EQ(covered.count(std::string(k.name)), 1u)
        << k.name << " has no reader in test_knobs";
}

TEST(Knobs, FlagAndPlainTextKnobs) {
  for (const char* off : {static_cast<const char*>(nullptr), "", "0"}) {
    const ScopedEnv trace("PTLR_TRACE", off);
    EXPECT_FALSE(knobs::flag("PTLR_TRACE"));
  }
  {
    const ScopedEnv trace("PTLR_TRACE", "1");
    EXPECT_TRUE(knobs::flag("PTLR_TRACE"));
  }
  // Any other text is an error; "false" once turned tracing on.
  for (const char* bad : {"false", "true", "yes", "2", " 1", "01"}) {
    const ScopedEnv trace("PTLR_TRACE", bad);
    try {
      (void)knobs::flag("PTLR_TRACE");
      ADD_FAILURE() << "PTLR_TRACE accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("PTLR_TRACE"), std::string::npos)
          << e.what();
    }
  }
  for (const char* unset : {static_cast<const char*>(nullptr), ""}) {
    const ScopedEnv file("PTLR_TRACE_FILE", unset), dir("PTLR_CKPT_DIR", unset);
    EXPECT_EQ(knobs::text("PTLR_TRACE_FILE"), "ptlr_trace.json");
    EXPECT_EQ(core::CheckpointPolicy::from_env().dir, ".");
  }
  const ScopedEnv file("PTLR_TRACE_FILE", "trace_rank{rank}.json"),
      dir("PTLR_CKPT_DIR", "chaos");
  EXPECT_EQ(knobs::text("PTLR_TRACE_FILE"), "trace_rank{rank}.json");
  EXPECT_EQ(core::CheckpointPolicy::from_env().dir, "chaos");
}

TEST(Knobs, EmptyIsUnsetForEveryRow) {
  // Reads the row through the lookup of its kind, as text.
  const auto lookup = [](const knobs::Knob& k) -> std::string {
    switch (k.kind) {
      case knobs::Kind::kInteger: {
        const auto v = knobs::integer(k.name);
        return v ? std::to_string(*v) : "none";
      }
      case knobs::Kind::kFlag: return knobs::flag(k.name) ? "on" : "off";
      case knobs::Kind::kText: return knobs::text(k.name);
    }
    return "?";
  };
  for (const knobs::Knob& k : knobs::table()) {
    std::string unset, empty;
    {
      const ScopedEnv v(std::string(k.name), nullptr);
      unset = lookup(k);
    }
    {
      const ScopedEnv v(std::string(k.name), "");
      empty = lookup(k);
    }
    EXPECT_EQ(unset, empty) << k.name;
  }
}

TEST(Knobs, UnknownNameIsAProgrammingError) {
  EXPECT_THROW((void)knobs::knob("PTLR_NOPE"), std::logic_error);
  EXPECT_THROW((void)knobs::text("PTLR_RANKS"), std::logic_error);
}
