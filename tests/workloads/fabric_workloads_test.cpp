// Workload-level tests for the pluggable fabric (topology x routing x
// credits through cluster::SystemConfig::fabric).
//
// The net/ unit tests pin the contracts; these tests pin what the paper's
// workloads observe: the star override is bit-identical to the seed golden,
// every topology carries a full allreduce correctly under both strategies,
// sweeps over fabrics stay bit-identical across --jobs, and adaptive
// routing + finite credits never cost determinism.
#include <gtest/gtest.h>

#include "cluster/config.hpp"
#include "exp/runner.hpp"
#include "exp/sweeps.hpp"
#include "workloads/allreduce.hpp"
#include "workloads/jacobi.hpp"

namespace gputn::workloads {
namespace {

AllreduceConfig small_allreduce(Strategy s = Strategy::kGpuTn) {
  AllreduceConfig cfg;
  cfg.strategy = s;
  cfg.nodes = 4;
  cfg.elements = 16 * 1024;
  return cfg;
}

/// Table 2 on the fabric `topology`.
cluster::SystemConfig on(const std::string& topology) {
  cluster::SystemConfig sys = cluster::SystemConfig::table2();
  sys.fabric.topology = topology;
  return sys;
}

TEST(FabricWorkloads, ExplicitStarMatchesTheSeedGolden) {
  // --topology star must be a spelling of the default, not a new code path:
  // same golden total time and identical stats as the untouched config.
  AllreduceConfig plain = small_allreduce();
  plain.elements = 65536;
  AllreduceResult base = run_allreduce(plain);
  cluster::SystemConfig star = on("star");
  star.fabric.routing = "deterministic";
  AllreduceResult r = run_allreduce(plain, star);
  ASSERT_TRUE(base.correct);
  ASSERT_TRUE(r.correct);
  EXPECT_EQ(base.total_time, 36134921);  // the seed golden, re-pinned
  EXPECT_EQ(r.total_time, base.total_time);
  EXPECT_EQ(r.stats_json(), base.stats_json());
}

TEST(FabricWorkloads, EveryTopologyCarriesAllreduceCorrectly) {
  for (const char* topo :
       {"fat-tree:k=4", "torus:2x2", "dragonfly:a=2,h=2,p=2"}) {
    for (Strategy s : {Strategy::kCpu, Strategy::kGpuTn}) {
      AllreduceResult r = run_allreduce(small_allreduce(s), on(topo));
      EXPECT_TRUE(r.correct) << topo << " " << strategy_name(s);
      EXPECT_EQ(r.max_error, 0.0) << topo;
      EXPECT_GT(r.total_time, 0) << topo;
    }
  }
}

TEST(FabricWorkloads, JacobiRunsOnAMultiHopFabric) {
  JacobiConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.n = 32;
  cfg.iterations = 3;
  JacobiResult r = run_jacobi(cfg, on("torus:2x2"));
  ASSERT_TRUE(r.correct);
  // The 2x2 torus needs real inter-switch hops (diagonal neighbors are two
  // hops), so the halo exchange must take longer than the one-hop star.
  EXPECT_GT(r.total_time, run_jacobi(cfg).total_time);
}

TEST(FabricWorkloads, MultiHopTopologiesCostMoreThanTheStar) {
  sim::Tick star = run_allreduce(small_allreduce(), on("star")).total_time;
  sim::Tick fat =
      run_allreduce(small_allreduce(), on("fat-tree:k=4")).total_time;
  EXPECT_GT(fat, star);  // ring neighbors cross 3-5 switches on a fat-tree
}

TEST(FabricWorkloads, AdaptiveRoutingWithCreditsStaysDeterministic) {
  cluster::SystemConfig sys = on("fat-tree:k=4");
  sys.fabric.routing = "adaptive";
  sys.fabric.credits_per_port = 4;
  AllreduceResult a = run_allreduce(small_allreduce(), sys);
  AllreduceResult b = run_allreduce(small_allreduce(), sys);
  ASSERT_TRUE(a.correct);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.stats_json(), b.stats_json());
}

TEST(FabricWorkloads, TightCreditsThrottleButNeverBreakTheWorkload) {
  cluster::SystemConfig free_flow = on("fat-tree:k=4");
  cluster::SystemConfig tight = free_flow;
  tight.fabric.credits_per_port = 1;
  AllreduceResult a = run_allreduce(small_allreduce(), free_flow);
  AllreduceResult b = run_allreduce(small_allreduce(), tight);
  ASSERT_TRUE(a.correct);
  ASSERT_TRUE(b.correct);
  EXPECT_GE(b.total_time, a.total_time);
  // The stalls are visible in the exported stats when they happened.
  EXPECT_GT(b.net_stats.counter_value("net.credit_stalls") +
                b.net_stats.counter_value("net.switch.packets"),
            0u);
}

TEST(FabricWorkloads, FabricSweepIsBitIdenticalAcrossJobs) {
  exp::Plan plan = exp::fabric_scale_plan({4, 8}, {"star", "fat-tree:k=4"},
                                          /*elements=*/16 * 1024);
  ASSERT_EQ(plan.size(), 8u);  // 2 node counts x 2 topologies x 2 strategies
  exp::RunSummary s1 = exp::Runner(1).run(plan);
  exp::RunSummary s2 = exp::Runner(2).run(plan);
  exp::RunSummary s4 = exp::Runner(4).run(plan);
  EXPECT_EQ(s1.failures, 0u);
  EXPECT_TRUE(s1.all_correct());
  std::string j1 = exp::results_json(s1);
  EXPECT_EQ(j1, exp::results_json(s2));
  EXPECT_EQ(j1, exp::results_json(s4));
}

TEST(FabricWorkloads, AdaptiveFabricSweepIsBitIdenticalAcrossJobs) {
  // The stronger claim: even with queue-depth-driven routing and finite
  // credits, runs are isolated simulations, so parallel execution cannot
  // perturb a single timestamp.
  exp::Plan plan = exp::fabric_scale_plan({4}, {"fat-tree:k=4", "torus:2x2"},
                                          /*elements=*/16 * 1024, "adaptive");
  exp::RunSummary s1 = exp::Runner(1).run(plan);
  exp::RunSummary s4 = exp::Runner(4).run(plan);
  EXPECT_EQ(s1.failures, 0u);
  EXPECT_EQ(exp::results_json(s1), exp::results_json(s4));
}

TEST(FabricWorkloads, BadTopologySpecFailsLoudly) {
  EXPECT_THROW(run_allreduce(small_allreduce(), on("moebius:k=4")),
               std::invalid_argument);
  cluster::SystemConfig routing = on("star");
  routing.fabric.routing = "chaotic";
  EXPECT_THROW(run_allreduce(small_allreduce(), routing),
               std::invalid_argument);
}

}  // namespace
}  // namespace gputn::workloads
