#include "rt/collectives.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace gputn::rt {
namespace {

TEST(RingPlan, StepCountAndPhases) {
  RingAllreducePlan plan(0, 8, 1024);
  EXPECT_EQ(plan.num_steps(), 14);
  for (int s = 0; s < 7; ++s) EXPECT_TRUE(plan.steps()[s].reduce);
  for (int s = 7; s < 14; ++s) EXPECT_FALSE(plan.steps()[s].reduce);
}

TEST(RingPlan, NeighborsFormARing) {
  const int n = 5;
  for (int r = 0; r < n; ++r) {
    RingAllreducePlan plan(r, n, 100);
    for (const auto& st : plan.steps()) {
      EXPECT_EQ(st.to, (r + 1) % n);
      EXPECT_EQ(st.from, (r + n - 1) % n);
    }
  }
}

TEST(RingPlan, ChunkPartitionCoversVector) {
  RingAllreducePlan plan(0, 7, 1000);  // 1000 / 7 leaves a remainder
  std::size_t total = 0;
  for (int c = 0; c < 7; ++c) {
    EXPECT_EQ(plan.chunk_offset(c), total);
    total += plan.chunk_elems(c);
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_GE(plan.max_chunk_elems(), plan.chunk_elems(0));
}

TEST(RingPlan, SendMatchesPeerRecvEveryStep) {
  // What rank r sends at step s must be what rank r+1 expects to receive.
  const int n = 6;
  std::vector<RingAllreducePlan> plans;
  for (int r = 0; r < n; ++r) plans.emplace_back(r, n, 600);
  for (int s = 0; s < plans[0].num_steps(); ++s) {
    for (int r = 0; r < n; ++r) {
      const auto& mine = plans[r].steps()[s];
      const auto& peers = plans[(r + 1) % n].steps()[s];
      EXPECT_EQ(mine.send_chunk, peers.recv_chunk)
          << "rank " << r << " step " << s;
    }
  }
}

// Dataflow simulation of the plan: after executing all steps functionally,
// every rank must hold the full reduction. This is a pure-algorithm check,
// independent of the simulator.
class RingDataflow : public ::testing::TestWithParam<int> {};

TEST_P(RingDataflow, ProducesFullReductionOnAllRanks) {
  const int n = GetParam();
  const std::size_t elems = 120;
  std::vector<RingAllreducePlan> plans;
  std::vector<std::vector<double>> data(n, std::vector<double>(elems));
  for (int r = 0; r < n; ++r) {
    plans.emplace_back(r, n, elems);
    for (std::size_t i = 0; i < elems; ++i) {
      data[r][i] = r * 100.0 + static_cast<double>(i);
    }
  }
  std::vector<double> expected(elems, 0.0);
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < elems; ++i) expected[i] += data[r][i];
  }

  // Execute step-synchronously: all ranks perform step s, then s+1.
  for (int s = 0; s < plans[0].num_steps(); ++s) {
    // Snapshot sends first (simultaneous exchange).
    std::vector<std::vector<double>> in_flight(n);
    for (int r = 0; r < n; ++r) {
      const auto& st = plans[r].steps()[s];
      std::size_t off = plans[r].chunk_offset(st.send_chunk);
      std::size_t cnt = plans[r].chunk_elems(st.send_chunk);
      in_flight[st.to].assign(data[r].begin() + off,
                              data[r].begin() + off + cnt);
    }
    for (int r = 0; r < n; ++r) {
      const auto& st = plans[r].steps()[s];
      std::size_t off = plans[r].chunk_offset(st.recv_chunk);
      std::size_t cnt = plans[r].chunk_elems(st.recv_chunk);
      ASSERT_EQ(in_flight[r].size(), cnt);
      for (std::size_t i = 0; i < cnt; ++i) {
        if (st.reduce) {
          data[r][off + i] += in_flight[r][i];
        } else {
          data[r][off + i] = in_flight[r][i];
        }
      }
    }
  }
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < elems; ++i) {
      ASSERT_DOUBLE_EQ(data[r][i], expected[i]) << "rank " << r << " i " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rings, RingDataflow,
                         ::testing::Values(2, 3, 4, 5, 8, 16, 32));

TEST(RingPlan, RejectsBadArguments) {
  EXPECT_THROW(RingAllreducePlan(0, 1, 100), std::invalid_argument);
  EXPECT_THROW(RingAllreducePlan(5, 4, 100), std::invalid_argument);
  EXPECT_THROW(RingAllreducePlan(0, 8, 4), std::invalid_argument);
}

}  // namespace
}  // namespace gputn::rt
