#include "workloads/broadcast.hpp"

#include <gtest/gtest.h>

namespace gputn::workloads {
namespace {

class BroadcastCorrectness
    : public ::testing::TestWithParam<std::tuple<BroadcastDrive, int>> {};

TEST_P(BroadcastCorrectness, EveryNodeGetsTheRootVector) {
  auto [drive, nodes] = GetParam();
  BroadcastConfig cfg;
  cfg.drive = drive;
  cfg.nodes = nodes;
  cfg.bytes = 64 * 1024;
  cfg.chunks = 8;
  BroadcastResult res = run_broadcast(cfg);
  EXPECT_TRUE(res.correct) << broadcast_drive_name(drive)
                           << " nodes=" << nodes;
  EXPECT_GT(res.total_time, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BroadcastCorrectness,
    ::testing::Combine(::testing::Values(BroadcastDrive::kHdn,
                                         BroadcastDrive::kGpuTn,
                                         BroadcastDrive::kNicChain),
                       ::testing::Values(2, 3, 4, 8)),
    [](const auto& info) {
      std::string n = broadcast_drive_name(std::get<0>(info.param));
      std::erase(n, '-');
      return n + "_n" + std::to_string(std::get<1>(info.param));
    });

TEST(Broadcast, PipelineBeatsUnchunked) {
  BroadcastConfig pipelined;
  pipelined.drive = BroadcastDrive::kNicChain;
  pipelined.nodes = 8;
  pipelined.bytes = 1 << 20;
  pipelined.chunks = 16;
  BroadcastConfig whole = pipelined;
  whole.chunks = 1;
  auto a = run_broadcast(pipelined);
  auto b = run_broadcast(whole);
  EXPECT_TRUE(a.correct);
  EXPECT_TRUE(b.correct);
  // Store-and-forward of the whole vector at every hop vs a pipeline.
  EXPECT_LT(a.total_time, b.total_time);
}

TEST(Broadcast, NicChainIsNoSlowerThanGpuPaced) {
  BroadcastConfig gpu;
  gpu.drive = BroadcastDrive::kGpuTn;
  gpu.nodes = 8;
  gpu.bytes = 256 * 1024;
  gpu.chunks = 16;
  BroadcastConfig chain = gpu;
  chain.drive = BroadcastDrive::kNicChain;
  auto a = run_broadcast(gpu);
  auto b = run_broadcast(chain);
  EXPECT_TRUE(a.correct);
  EXPECT_TRUE(b.correct);
  EXPECT_LE(b.total_time, a.total_time);
}

TEST(Broadcast, NicChainBeatsHdn) {
  // A pure-communication pipeline has no kernels for HDN to pay for, so
  // plain GPU-TN only ties it (its kernel-launch head start cancels the
  // faster per-hop forwarding). The NIC chain, however, removes the
  // per-hop host stack entirely and must win.
  BroadcastConfig hdn;
  hdn.drive = BroadcastDrive::kHdn;
  hdn.nodes = 8;
  hdn.bytes = 256 * 1024;
  hdn.chunks = 16;
  BroadcastConfig chain = hdn;
  chain.drive = BroadcastDrive::kNicChain;
  auto a = run_broadcast(hdn);
  auto b = run_broadcast(chain);
  EXPECT_TRUE(a.correct);
  EXPECT_TRUE(b.correct);
  EXPECT_LT(b.total_time, a.total_time);
}

TEST(Broadcast, RejectsBadConfigs) {
  BroadcastConfig cfg;
  cfg.nodes = 1;
  EXPECT_THROW(run_broadcast(cfg), std::invalid_argument);
  cfg.nodes = 4;
  cfg.bytes = 16;
  cfg.chunks = 64;  // more chunks than elements
  EXPECT_THROW(run_broadcast(cfg), std::invalid_argument);
}

TEST(Broadcast, RejectsTooManyChunksBeforeBuilding) {
  // A topology make_topology does not know: a run that got as far as
  // building its cluster would throw on that instead.
  cluster::SystemConfig sys = cluster::SystemConfig::table2();
  sys.fabric.topology = "no-such-topology";
  BroadcastConfig cfg;
  cfg.nodes = 4;
  cfg.bytes = 16;
  cfg.chunks = 8;
  try {
    run_broadcast(cfg, sys);
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "too many chunks");
  }
}

}  // namespace
}  // namespace gputn::workloads
