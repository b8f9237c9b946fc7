#include "cpu/cpu.hpp"

#include <gtest/gtest.h>

#include "mem/memory.hpp"
#include "sim/simulator.hpp"

namespace gputn::cpu {
namespace {

struct Rig {
  explicit Rig(CpuConfig cfg = CpuConfig{}) : cpu(sim, memory, cfg) {}
  sim::Simulator sim;
  mem::Memory memory{1 << 20};
  Cpu cpu;
};

TEST(Cpu, SerialFlopsMatchSingleCoreRate) {
  CpuConfig cfg;
  cfg.clock_ghz = 4.0;
  cfg.flops_per_core_per_cycle = 16.0;  // 64 flops/ns single core
  Rig r(cfg);
  r.sim.spawn(
      [](Cpu& cpu) -> sim::Task<> {
        co_await cpu.compute_flops_serial(64000.0);
      }(r.cpu),
      "serial");
  r.sim.run();
  EXPECT_EQ(r.sim.now(), sim::us(1));
}

TEST(Cpu, ParallelRooflineComputeBound) {
  CpuConfig cfg;
  cfg.cores = 8;
  cfg.clock_ghz = 4.0;
  cfg.flops_per_core_per_cycle = 16.0;
  cfg.parallel_efficiency = 1.0;
  cfg.mem_bandwidth = sim::Bandwidth::bytes_per_sec(1e12);  // not the limit
  Rig r(cfg);
  // 512 flops/ns aggregate.
  EXPECT_EQ(r.cpu.parallel_time(512000.0, 64), sim::us(1));
}

TEST(Cpu, ParallelRooflineMemoryBound) {
  CpuConfig cfg;
  cfg.mem_bandwidth = sim::Bandwidth::bytes_per_sec(1e9);  // 1 B/ns
  cfg.l3_tier_bytes = 0;  // force the DRAM roofline
  Rig r(cfg);
  // Tiny flops, 1 MB of traffic -> bandwidth bound: 1e6 ns.
  EXPECT_EQ(r.cpu.parallel_time(8.0, 1'000'000), sim::ms(1));
}

TEST(Cpu, ParallelEfficiencyScalesComputeTime) {
  CpuConfig full;
  full.parallel_efficiency = 1.0;
  full.mem_bandwidth = sim::Bandwidth::bytes_per_sec(1e15);
  CpuConfig half = full;
  half.parallel_efficiency = 0.5;
  Rig a(full), b(half);
  EXPECT_EQ(2 * a.cpu.parallel_time(1e6, 0), b.cpu.parallel_time(1e6, 0));
}

TEST(Cpu, WaitValuePollsUntilSet) {
  Rig r;
  mem::Addr flag = r.memory.alloc(8);
  r.memory.store<std::uint64_t>(flag, 0);
  sim::Tick done = -1;
  r.sim.spawn(
      [](Rig& rig, mem::Addr f, sim::Tick& out) -> sim::Task<> {
        co_await rig.cpu.wait_value_ge(f, 3);
        out = rig.sim.now();
      }(r, flag, done),
      "waiter");
  r.sim.schedule_at(sim::us(7), [&] { r.memory.store<std::uint64_t>(flag, 3); });
  r.sim.run();
  EXPECT_GE(done, sim::us(7));
  EXPECT_LE(done, sim::us(7) + r.cpu.config().poll_interval);
}

TEST(Cpu, WaitValueGeAcceptsLargerValues) {
  Rig r;
  mem::Addr flag = r.memory.alloc(8);
  r.memory.store<std::uint64_t>(flag, 10);
  sim::Tick done = -1;
  r.sim.spawn(
      [](Rig& rig, mem::Addr f, sim::Tick& out) -> sim::Task<> {
        co_await rig.cpu.wait_value_ge(f, 3);
        out = rig.sim.now();
      }(r, flag, done),
      "waiter");
  r.sim.run();
  EXPECT_EQ(done, 0) << "already satisfied: no polling delay";
}

}  // namespace
}  // namespace gputn::cpu
