#include "workloads/jacobi.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>

#include "../support/max_rss.hpp"

namespace gputn::workloads {
namespace {

JacobiConfig small(Strategy s, int n = 16, int iters = 3) {
  JacobiConfig cfg;
  cfg.strategy = s;
  cfg.n = n;
  cfg.iterations = iters;
  cfg.num_wgs = 4;
  return cfg;
}

class JacobiCorrectness
    : public ::testing::TestWithParam<std::tuple<Strategy, int>> {};

TEST_P(JacobiCorrectness, MatchesScalarTorusReference) {
  auto [strategy, n] = GetParam();
  JacobiResult res = run_jacobi(small(strategy, n));
  EXPECT_TRUE(res.correct) << strategy_name(strategy) << " n=" << n;
  EXPECT_GT(res.total_time, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JacobiCorrectness,
    ::testing::Combine(::testing::Values(Strategy::kCpu, Strategy::kHdn,
                                         Strategy::kGds, Strategy::kGpuTn),
                       ::testing::Values(8, 16, 33)),
    [](const auto& info) {
      std::string n = strategy_name(std::get<0>(info.param));
      std::erase(n, '-');
      return n + "_n" + std::to_string(std::get<1>(info.param));
    });

TEST(Jacobi, AllStrategiesAgreeOnChecksum) {
  // Exact pins on an even and an odd grid edge: every strategy, and any
  // rewrite of the functional loops, must reproduce these doubles.
  struct Case {
    int n, iterations;
    double checksum;
  };
  for (Case c : {Case{16, 4, 0x1.f8bfa0fd5c5fp+6},
                 Case{33, 3, 0x1.0d7a24f2cddafp+9}}) {
    for (Strategy s : kAllStrategies) {
      JacobiResult res = run_jacobi(small(s, c.n, c.iterations));
      ASSERT_TRUE(res.correct) << strategy_name(s) << " n=" << c.n;
      EXPECT_EQ(res.checksum, c.checksum) << strategy_name(s) << " n=" << c.n;
    }
  }
}

TEST(Jacobi, ChecksumPinnedAcrossReferenceBlocks) {
  // The reference sweeps its torus several iterations per pass. These pins
  // cover a two-row torus (n = 1), iteration counts that fill whole passes
  // and that leave a one-iteration last pass, and runs of several passes.
  struct Case {
    int n, iterations;
    double checksum;
  };
  for (Case c : {Case{1, 8, 0x1.fab8be054742p-3},
                 Case{3, 16, 0x1.28674c38ddb0ep+2},
                 Case{5, 9, 0x1.907e817c0a8eap+3},
                 Case{12, 17, 0x1.1e2190ecdea37p+6}}) {
    for (Strategy s : kAllStrategies) {
      JacobiResult res = run_jacobi(small(s, c.n, c.iterations));
      ASSERT_TRUE(res.correct) << strategy_name(s) << " n=" << c.n;
      EXPECT_EQ(res.checksum, c.checksum) << strategy_name(s) << " n=" << c.n;
    }
  }
}

TEST(Jacobi, SingleIterationWorks) {
  for (Strategy s : kAllStrategies) {
    JacobiResult res = run_jacobi(small(s, 12, 1));
    EXPECT_TRUE(res.correct) << strategy_name(s);
  }
}

TEST(Jacobi, ZeroIterationsIsCorrectForEveryStrategy) {
  // The initial grid stands: every strategy verifies, and node 0's checksum
  // is the sum of its initial block, in the checksum's row-major order.
  constexpr int n = 16;
  double initial = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) initial += ((i * 31 + j * 17) % 97) / 97.0;
  }
  for (Strategy s : kAllStrategies) {
    JacobiResult res = run_jacobi(small(s, n, 0));
    EXPECT_TRUE(res.correct) << strategy_name(s);
    EXPECT_EQ(res.checksum, initial) << strategy_name(s);
  }
}

TEST(Jacobi, ThrowingRunStopsItsReference) {
  // GHN is microbenchmark-only: run_jacobi throws after the cluster is built
  // and the reference thread has started. Unwinding must stop the reference
  // within an iteration, not wait out 20,000 of them (tens of seconds).
  auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(run_jacobi(small(Strategy::kGhn, 512, 20000)),
               std::invalid_argument);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

TEST(Jacobi, GpuTnFasterThanHdnOnMediumGrids) {
  // Figure 9: GPU-TN > GDS > HDN on medium grids (kernel boundaries cost).
  auto hdn = run_jacobi(small(Strategy::kHdn, 64, 4));
  auto gds = run_jacobi(small(Strategy::kGds, 64, 4));
  auto tn = run_jacobi(small(Strategy::kGpuTn, 64, 4));
  EXPECT_LT(tn.per_iteration(), gds.per_iteration());
  EXPECT_LT(gds.per_iteration(), hdn.per_iteration());
}

TEST(Jacobi, CpuCompetitiveOnlyOnSmallGrids) {
  // Figure 9: the CPU wins at the far left (tiny grids), loses at the right.
  auto cpu_small = run_jacobi(small(Strategy::kCpu, 16, 2));
  auto hdn_small = run_jacobi(small(Strategy::kHdn, 16, 2));
  EXPECT_LT(cpu_small.per_iteration(), hdn_small.per_iteration());

  JacobiConfig big_cpu = small(Strategy::kCpu, 256, 4);
  big_cpu.num_wgs = 16;
  JacobiConfig big_tn = small(Strategy::kGpuTn, 256, 4);
  big_tn.num_wgs = 16;
  auto cpu_big = run_jacobi(big_cpu);
  auto tn_big = run_jacobi(big_tn);
  EXPECT_GT(cpu_big.per_iteration(), tn_big.per_iteration());
}

TEST(Jacobi, Deterministic) {
  auto a = run_jacobi(small(Strategy::kGpuTn, 16, 3));
  auto b = run_jacobi(small(Strategy::kGpuTn, 16, 3));
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.checksum, b.checksum);
}

TEST(Jacobi, OverlapVariantStaysCorrectAndIsFaster) {
  // The §5.3 overlap extension must not change the numerics, and on
  // medium grids it must actually help.
  JacobiConfig base;
  base.strategy = Strategy::kGpuTn;
  base.n = 64;
  base.iterations = 6;
  base.num_wgs = 8;
  JacobiConfig ovl = base;
  ovl.overlap = true;
  auto a = run_jacobi(base);
  auto b = run_jacobi(ovl);
  EXPECT_TRUE(a.correct);
  EXPECT_TRUE(b.correct);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_LT(b.per_iteration(), a.per_iteration());
}

TEST(Jacobi, OverlapIgnoredByOtherStrategies) {
  JacobiConfig cfg;
  cfg.strategy = Strategy::kHdn;
  cfg.n = 16;
  cfg.iterations = 2;
  cfg.overlap = true;  // only GPU-TN implements overlap; others ignore it
  auto res = run_jacobi(cfg);
  EXPECT_TRUE(res.correct);
}

TEST(Jacobi, RejectsOversizedGridBeforeBuilding) {
  long before = test::max_rss_kb();
  EXPECT_THROW(run_jacobi(small(Strategy::kGpuTn, kMaxN + 1)),
               std::invalid_argument);
  EXPECT_THROW(run_jacobi(small(Strategy::kCpu, 0)), std::invalid_argument);
  EXPECT_LT(test::max_rss_kb() - before, 32 * 1024);
}

TEST(Jacobi, NoMemoryModelHazards) {
  // Every strategy fences before triggering; the hazard detector must stay
  // quiet in a correct implementation.
  JacobiResult res = run_jacobi(small(Strategy::kGpuTn, 16, 3));
  EXPECT_TRUE(res.correct);
}

}  // namespace
}  // namespace gputn::workloads
