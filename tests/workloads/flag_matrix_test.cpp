// CLI flag compatibility: the pairwise {--replicas, --trace, --timeseries,
// --flight} rules live in one table (options.cpp) consumed by both
// run_workload's rejection path and `gputn config`'s rendered matrix. This
// test drives every pair through flag_conflict and pins the rendered
// matrix so a new rule cannot land in one place only.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "workloads/options.hpp"

namespace gputn::workloads {
namespace {

ActiveFlags make(bool replicas, bool trace, bool timeseries, bool flight) {
  ActiveFlags f;
  f.replicas = replicas;
  f.trace = trace;
  f.timeseries = timeseries;
  f.flight = flight;
  return f;
}

struct PairCase {
  ActiveFlags flags;
  bool ok;
  const char* a;  // expected names in the rejection message
  const char* b;
};

TEST(FlagMatrix, EveryPairMatchesTheTable) {
  const PairCase cases[] = {
      {make(true, true, false, false), false, "--replicas", "--trace"},
      {make(true, false, true, false), false, "--replicas", "--timeseries"},
      {make(true, false, false, true), true, "", ""},
      {make(false, true, true, false), true, "", ""},
      {make(false, true, false, true), true, "", ""},
      {make(false, false, true, true), true, "", ""},
  };
  for (const PairCase& c : cases) {
    std::string msg = flag_conflict(c.flags);
    if (c.ok) {
      EXPECT_TRUE(msg.empty()) << msg;
    } else {
      ASSERT_FALSE(msg.empty()) << c.a << " + " << c.b;
      EXPECT_NE(msg.find(c.a), std::string::npos) << msg;
      EXPECT_NE(msg.find(c.b), std::string::npos) << msg;
      EXPECT_NE(msg.find("cannot be combined with"), std::string::npos) << msg;
      // The why-clause is part of the message: users see the reason, not
      // just the verdict.
      EXPECT_NE(msg.find('('), std::string::npos) << msg;
    }
  }
}

TEST(FlagMatrix, SingleFlagsAndEmptyAreAlwaysFine) {
  EXPECT_TRUE(flag_conflict(ActiveFlags{}).empty());
  EXPECT_TRUE(flag_conflict(make(true, false, false, false)).empty());
  EXPECT_TRUE(flag_conflict(make(false, true, false, false)).empty());
  EXPECT_TRUE(flag_conflict(make(false, false, true, false)).empty());
  EXPECT_TRUE(flag_conflict(make(false, false, false, true)).empty());
}

TEST(FlagMatrix, FirstListedConflictWins) {
  // With several conflicting pairs active the message names the first rule
  // in table order — deterministic, so scripts can match on it.
  std::string msg = flag_conflict(make(true, true, true, false));
  EXPECT_NE(msg.find("--replicas"), std::string::npos);
  EXPECT_NE(msg.find("--trace"), std::string::npos);
  EXPECT_EQ(msg.find("--timeseries"), std::string::npos);
}

TEST(FlagMatrix, RenderedMatrixAgreesWithTheRules) {
  const std::string m = flag_matrix();
  // Header plus one row per flag, every flag named.
  for (const char* f : {"--replicas", "--trace", "--timeseries", "--flight"}) {
    EXPECT_NE(m.find(f), std::string::npos) << f;
  }
  // Count the grid's cells; the reasons listed under it carry a ':'.
  int no_cells = 0, ok_cells = 0;
  std::istringstream lines(m);
  for (std::string line; std::getline(lines, line);) {
    if (line.find(':') != std::string::npos) continue;
    std::istringstream cells(line);
    for (std::string cell; cells >> cell;) {
      no_cells += cell == "no";
      ok_cells += cell == "ok";
    }
  }
  // 2 rejected and 4 accepted pairs, each shown twice (symmetric grid).
  EXPECT_EQ(no_cells, 4);
  EXPECT_EQ(ok_cells, 8);
  // The reason for every rejected pair is listed under the grid.
  EXPECT_NE(m.find("--replicas + --trace: "), std::string::npos);
  EXPECT_NE(m.find("--replicas + --timeseries: "), std::string::npos);
}

}  // namespace
}  // namespace gputn::workloads
