// End-to-end acceptance tests: the paper's workloads run to completion with
// bit-correct results while every link drops packets, and a lossless
// configuration pays zero protocol overhead. These configurations pass;
// loss does not leave every run correct. The GPU-TN and GDS allreduce
// reuse two staging buffers with no receiver-ready signal, so a
// retransmission that releases a held-back burst can overwrite one before
// its step is reduced (8 ranks x 0.0625 MiB fails verification for most
// seeds at 1-2% loss; DESIGN.md §7).
#include <gtest/gtest.h>

#include "workloads/allreduce.hpp"
#include "workloads/broadcast.hpp"
#include "workloads/jacobi.hpp"

namespace gputn::workloads {
namespace {

TEST(WorkloadsUnderLoss, GpuTnAllreduceSurvivesOnePercentLoss) {
  AllreduceConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.nodes = 4;
  cfg.elements = 128 * 1024;  // 512 KiB vector
  auto sys = cluster::SystemConfig::table2_with_loss(0.01, /*seed=*/42);
  AllreduceResult res = run_allreduce(cfg, sys);
  EXPECT_TRUE(res.correct) << "max_error=" << res.max_error;
  EXPECT_GT(res.net_stats.counter_value("fault.drops"), 0u);
  EXPECT_GT(res.net_stats.counter_value("rel.retransmits"), 0u);
  EXPECT_GT(res.net_stats.counter_value("rel.acks_tx"), 0u);
  EXPECT_GT(res.net_stats.counter_value("net.link.drops"), 0u);
}

TEST(WorkloadsUnderLoss, CpuAllreduceSurvivesOnePercentLoss) {
  AllreduceConfig cfg;
  cfg.strategy = Strategy::kCpu;
  cfg.nodes = 4;
  cfg.elements = 64 * 1024;
  auto sys = cluster::SystemConfig::table2_with_loss(0.01, /*seed=*/7);
  AllreduceResult res = run_allreduce(cfg, sys);
  EXPECT_TRUE(res.correct) << "max_error=" << res.max_error;
  EXPECT_GT(res.net_stats.counter_value("rel.retransmits"), 0u);
}

TEST(WorkloadsUnderLoss, BroadcastSurvivesOnePercentLoss) {
  BroadcastConfig cfg;
  cfg.drive = BroadcastDrive::kGpuTn;
  cfg.nodes = 4;
  cfg.bytes = 512 * 1024;
  cfg.chunks = 8;
  auto sys = cluster::SystemConfig::table2_with_loss(0.01, /*seed=*/11);
  BroadcastResult res = run_broadcast(cfg, sys);
  EXPECT_TRUE(res.correct);
  EXPECT_GT(res.net_stats.counter_value("fault.drops"), 0u);
  EXPECT_GT(res.net_stats.counter_value("rel.retransmits"), 0u);
}

TEST(WorkloadsUnderLoss, JacobiSurvivesLoss) {
  JacobiConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.n = 64;
  cfg.iterations = 3;
  // Halo messages are small and few; a higher rate makes sure the run
  // actually exercises retransmission (still deterministic via the seed).
  auto sys = cluster::SystemConfig::table2_with_loss(0.05, /*seed=*/5);
  JacobiResult res = run_jacobi(cfg, sys);
  EXPECT_TRUE(res.correct);
  EXPECT_GT(res.net_stats.counter_value("rel.retransmits"), 0u);
}

TEST(WorkloadsUnderLoss, CorruptionAndJitterAlsoRecovered) {
  BroadcastConfig cfg;
  cfg.drive = BroadcastDrive::kGpuTn;
  cfg.nodes = 4;
  cfg.bytes = 256 * 1024;
  cfg.chunks = 8;
  cluster::SystemConfig sys = cluster::SystemConfig::table2();
  sys.fault.seed = 23;
  sys.fault.default_profile.corrupt_rate = 0.02;
  sys.fault.default_profile.jitter_min = sim::ns(10);
  sys.fault.default_profile.jitter_max = sim::us(2);
  BroadcastResult res = run_broadcast(cfg, sys);
  EXPECT_TRUE(res.correct);
  EXPECT_GT(res.net_stats.counter_value("fault.corruptions"), 0u);
  EXPECT_GT(res.net_stats.counter_value("fault.delays"), 0u);
}

TEST(WorkloadsUnderLoss, ZeroLossRateIsExactNoOp) {
  AllreduceConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.nodes = 4;
  cfg.elements = 32 * 1024;

  AllreduceResult base = run_allreduce(cfg, cluster::SystemConfig::table2());
  AllreduceResult zero =
      run_allreduce(cfg, cluster::SystemConfig::table2_with_loss(0.0));
  ASSERT_TRUE(base.correct);
  ASSERT_TRUE(zero.correct);

  // A loss rate of zero must not enable the protocol: no sequence numbers,
  // no ACKs, not one extra message or byte on the wire, identical timing.
  EXPECT_EQ(zero.net_stats.counter_value("net.messages"),
            base.net_stats.counter_value("net.messages"));
  EXPECT_EQ(zero.net_stats.counter_value("net.bytes"),
            base.net_stats.counter_value("net.bytes"));
  EXPECT_EQ(zero.net_stats.counter_value("rel.tx_data"), 0u);
  EXPECT_EQ(zero.net_stats.counter_value("rel.acks_tx"), 0u);
  EXPECT_EQ(zero.net_stats.counter_value("fault.drops"), 0u);
  EXPECT_EQ(zero.total_time, base.total_time);
}

}  // namespace
}  // namespace gputn::workloads
