// The run shell every rank-based workload shares (workloads::run_ranks):
// the finish tick it returns, and the errors that leave it.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/sync.hpp"
#include "workloads/options.hpp"

namespace gputn::workloads {
namespace {

struct Rig {
  Rig() : cluster(sim, small(), 2) {}
  static cluster::SystemConfig small() {
    auto c = cluster::SystemConfig::table2();
    c.dram_bytes = 4u << 20;
    return c;
  }
  sim::Simulator sim;
  cluster::Cluster cluster;
};

sim::Task<> waits(sim::Simulator& s, sim::Tick d) { co_await s.delay(d); }

TEST(RunShell, ReturnsTheTickTheLastRankFinished) {
  Rig r;
  std::vector<sim::Task<>> ranks;
  ranks.push_back(waits(r.sim, sim::us(7)));
  ranks.push_back(waits(r.sim, sim::us(3)));
  EXPECT_EQ(run_ranks(r.cluster, RunOptions{}, std::move(ranks), "test"),
            sim::us(7));
}

TEST(RunShell, RankExceptionReachesTheCaller) {
  Rig r;
  std::vector<sim::Task<>> ranks;
  ranks.push_back(waits(r.sim, sim::us(3)));
  ranks.push_back([](sim::Simulator& s) -> sim::Task<> {
    co_await s.delay(sim::us(1));
    throw std::runtime_error("boom");
  }(r.sim));
  try {
    run_ranks(r.cluster, RunOptions{}, std::move(ranks), "test");
    ADD_FAILURE() << "run_ranks returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(RunShell, UnfinishedRankIsADeadlock) {
  Rig r;
  sim::Event never(r.sim);
  std::vector<sim::Task<>> ranks;
  ranks.push_back(waits(r.sim, sim::us(1)));
  ranks.push_back([](sim::Event& e) -> sim::Task<> {
    co_await e.wait();
  }(never));
  try {
    run_ranks(r.cluster, RunOptions{}, std::move(ranks), "test");
    ADD_FAILURE() << "run_ranks returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "test: deadlocked (a rank had not finished after 10 s of "
                 "simulated time)");
  }
}

}  // namespace
}  // namespace gputn::workloads
