// The registry's parameter contract: every runner reads its knobs, then
// refuses any other key before it builds anything, so a typo or a flag the
// workload does not take is a usage error — std::invalid_argument, exit 2
// from the CLI — and never silently ignored.
#include "workloads/registry.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/plan.hpp"
#include "exp/runner.hpp"
#include "obs/whatif.hpp"

namespace gputn::workloads {
namespace {

const Registry& reg() {
  static const Registry r = [] {
    Registry out;
    register_builtin_workloads(out);
    return out;
  }();
  return r;
}

using Keys = std::map<std::string, std::string>;

/// Every key each workload takes, at small sizes, plus a typo of one.
struct Case {
  std::string workload;
  Keys keys;
  std::string typo;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> c = {
      {"microbench", {{"strategy", "GHN"}}, "stratgy"},
      {"jacobi",
       {{"strategy", "GPU-TN"}, {"n", "16"}, {"iterations", "2"},
        {"overlap", ""}},
       "itreations"},
      {"allreduce",
       {{"strategy", "GPU-TN"}, {"mb", "0.0625"}, {"offload", ""}},
       "offlaod"},
      {"broadcast",
       {{"drive", "HDN"}, {"mb", "0.0625"}, {"chunks", "4"}},
       "chunk"},
      {"serve",
       {{"strategy", "CPU"}, {"clients", "2"}, {"servers", "1"},
        {"tenants", "2"}, {"window", "2"}, {"keys", "256"}, {"zipf", "0.5"},
        {"rw-mix", "0.5"}, {"offered-load", "1e6"}, {"requests", "16"},
        {"value-bytes", "64"}, {"slo-us", "50"}, {"compute-ns", "100"},
        {"batch", "2"}, {"rate-limit", "0"}, {"seed", "3"}},
       "rw_mix"},
  };
  return c;
}

WorkloadParams params(const Keys& keys) {
  WorkloadParams p;
  for (const auto& [k, v] : keys) p.set(k, v);
  return p;
}

RunOptions quiet() {
  RunOptions opts;
  opts.quiet = true;
  return opts;
}

TEST(Registry, EveryWorkloadAcceptsItsFullParameterSet) {
  ASSERT_EQ(cases().size(), reg().entries().size());
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.workload);
    ResultBase res = reg().find(c.workload)->run(
        quiet(), params(c.keys), cluster::SystemConfig::table2());
    EXPECT_TRUE(res.correct);
  }
}

TEST(Registry, UnknownOptionsFailBeforeTheClusterIsBuilt) {
  // A topology make_topology does not know: a runner that got as far as
  // building its cluster would throw on that instead.
  cluster::SystemConfig sys = cluster::SystemConfig::table2();
  sys.fabric.topology = "no-such-topology";
  for (const Case& c : cases()) {
    for (const std::string& bad : {std::string("shards"), c.typo}) {
      SCOPED_TRACE(c.workload + " --" + bad);
      Keys keys = c.keys;
      keys.emplace(bad, "2");
      try {
        reg().find(c.workload)->run(quiet(), params(keys), sys);
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        std::string want = "unknown option --";
        want += bad;
        want += " for ";
        want += c.workload;
        EXPECT_EQ(e.what(), want);
      }
    }
  }
}

TEST(Registry, BroadcastRefusesStrategyBeforeTheClusterIsBuilt) {
  // broadcast's --drive picks what runs; a --strategy would be ignored.
  cluster::SystemConfig sys = cluster::SystemConfig::table2();
  sys.fabric.topology = "no-such-topology";
  try {
    reg().find("broadcast")->run(
        quiet(), params({{"strategy", "GPU-TN"}, {"mb", "0.0625"}}), sys);
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown option --strategy for broadcast");
  }
}

TEST(Registry, UnknownOptionFailsEveryReplica) {
  WorkloadParams p = params({{"mb", "0.0625"}, {"shards", "2"}});
  exp::Plan plan;
  for (const char* id : {"p0", "p1"}) {
    plan.add_workload(reg(), id, "allreduce", quiet(), p,
                      cluster::SystemConfig::table2());
  }
  exp::RunSummary summary = exp::Runner(1).run(plan);
  EXPECT_EQ(summary.failures, 2u);
  for (const auto& r : summary.results) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "unknown option --shards for allreduce");
  }
}

TEST(Registry, WhatifServeBatchKnobStillRuns) {
  // doorbell_batch rewrites serve's "batch" parameter on each point.
  obs::WhatifOptions opt;
  opt.strategies = {Strategy::kCpu};
  opt.knobs = {"doorbell_batch"};
  opt.scales = {2.0};
  opt.curve = false;
  obs::WhatifReport rep = obs::run_whatif(
      reg(), "serve", params({{"tenants", "2"}, {"requests", "24"}}),
      RunOptions{}, cluster::SystemConfig::table2(), opt);
  ASSERT_EQ(rep.strategies.size(), 1u);
  const obs::StrategyReport& sr = rep.strategies[0];
  EXPECT_TRUE(sr.baseline_ok) << sr.baseline_error;
  ASSERT_EQ(sr.knobs.size(), 1u);
  EXPECT_FALSE(sr.knobs[0].inert);
  ASSERT_EQ(sr.knobs[0].points.size(), 1u);
  EXPECT_TRUE(sr.knobs[0].points[0].ok) << sr.knobs[0].points[0].error;
}

}  // namespace
}  // namespace gputn::workloads
