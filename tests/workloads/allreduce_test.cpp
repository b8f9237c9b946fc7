#include "workloads/allreduce.hpp"

#include <gtest/gtest.h>

#include "../support/max_rss.hpp"

namespace gputn::workloads {
namespace {

AllreduceConfig small(Strategy s, int nodes, std::size_t elems = 8192) {
  AllreduceConfig cfg;
  cfg.strategy = s;
  cfg.nodes = nodes;
  cfg.elements = elems;
  cfg.num_wgs = 4;
  return cfg;
}

class AllreduceCorrectness
    : public ::testing::TestWithParam<std::tuple<Strategy, int>> {};

TEST_P(AllreduceCorrectness, MatchesSequentialReduction) {
  auto [strategy, nodes] = GetParam();
  AllreduceResult res = run_allreduce(small(strategy, nodes));
  EXPECT_TRUE(res.correct) << strategy_name(strategy) << " nodes=" << nodes
                           << " max_error=" << res.max_error;
  EXPECT_GT(res.total_time, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllreduceCorrectness,
    ::testing::Combine(::testing::Values(Strategy::kCpu, Strategy::kHdn,
                                         Strategy::kGds, Strategy::kGpuTn),
                       ::testing::Values(2, 3, 4, 8)),
    [](const auto& info) {
      std::string n = strategy_name(std::get<0>(info.param));
      std::erase(n, '-');
      return n + "_n" + std::to_string(std::get<1>(info.param));
    });

TEST(Allreduce, OddElementCountWithRemainderChunks) {
  for (Strategy s : kAllStrategies) {
    AllreduceResult res = run_allreduce(small(s, 3, 10007));
    EXPECT_TRUE(res.correct) << strategy_name(s);
  }
}

TEST(Allreduce, Deterministic) {
  auto a = run_allreduce(small(Strategy::kGpuTn, 4));
  auto b = run_allreduce(small(Strategy::kGpuTn, 4));
  EXPECT_EQ(a.total_time, b.total_time);
}

TEST(Allreduce, GpuTnBeatsHdnAtScale) {
  // The Figure 10 effect: at higher node counts (smaller chunks), GPU-TN's
  // removal of per-step kernel boundaries wins.
  const std::size_t elems = 256 * 1024;  // 1 MB
  auto hdn = run_allreduce(small(Strategy::kHdn, 8, elems));
  auto tn = run_allreduce(small(Strategy::kGpuTn, 8, elems));
  auto gds = run_allreduce(small(Strategy::kGds, 8, elems));
  EXPECT_LT(tn.total_time, hdn.total_time);
  EXPECT_LT(tn.total_time, gds.total_time);
  EXPECT_LE(gds.total_time, hdn.total_time);
}

class OffloadCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(OffloadCorrectness, NicOffloadedAllgatherMatchesReduction) {
  // The chained-trigger allgather (NIC forwards with no GPU involvement)
  // must produce the identical result.
  AllreduceConfig cfg = small(Strategy::kGpuTn, GetParam(), 16384);
  cfg.nic_offload_allgather = true;
  AllreduceResult res = run_allreduce(cfg);
  EXPECT_TRUE(res.correct) << "nodes=" << GetParam()
                           << " max_error=" << res.max_error;
}

INSTANTIATE_TEST_SUITE_P(Nodes, OffloadCorrectness,
                         ::testing::Values(2, 3, 4, 8));

TEST(Allreduce, NicOffloadDoesNotSlowDown) {
  AllreduceConfig base = small(Strategy::kGpuTn, 6, 64 * 1024);
  AllreduceConfig off = base;
  off.nic_offload_allgather = true;
  auto a = run_allreduce(base);
  auto b = run_allreduce(off);
  EXPECT_TRUE(a.correct);
  EXPECT_TRUE(b.correct);
  // Offload removes GPU poll+trigger from forwarding hops; it must not be
  // slower (allowing a small tolerance for scheduling noise).
  EXPECT_LE(b.total_time, a.total_time + sim::us(1));
}

TEST(Allreduce, RejectsSingleNode) {
  EXPECT_THROW(run_allreduce(small(Strategy::kCpu, 1)),
               std::invalid_argument);
}

TEST(Allreduce, RejectsFewerElementsThanRanksBeforeBuilding) {
  // Building 4096 nodes alone takes ~90 MB; the check must come first.
  long before = test::max_rss_kb();
  EXPECT_THROW(run_allreduce(small(Strategy::kGpuTn, 4096, 1)),
               std::invalid_argument);
  EXPECT_LT(test::max_rss_kb() - before, 32 * 1024);
}

}  // namespace
}  // namespace gputn::workloads
