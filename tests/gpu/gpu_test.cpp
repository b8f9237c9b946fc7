#include "gpu/gpu.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "mem/memory.hpp"
#include "sim/simulator.hpp"

namespace gputn::gpu {
namespace {

GpuConfig fast_config() {
  GpuConfig c;
  c.launch_latency = sim::us(1.5);
  c.teardown_latency = sim::us(1.5);
  return c;
}

struct Rig {
  explicit Rig(GpuConfig cfg = fast_config()) : gpu(sim, memory, cfg) {}
  ~Rig() { sim.reap_processes(); }
  sim::Simulator sim;
  mem::Memory memory{1 << 22};
  Gpu gpu;
};

TEST(Gpu, EmptyKernelPaysLaunchAndTeardown) {
  Rig r;
  auto rec = r.gpu.enqueue_kernel(KernelDesc{"empty", 1, 64, nullptr});
  r.sim.run();
  EXPECT_TRUE(rec->done.triggered());
  EXPECT_EQ(rec->launch_begin, 0);
  EXPECT_EQ(rec->exec_begin, sim::us(1.5));
  EXPECT_EQ(rec->exec_end, sim::us(1.5));
  EXPECT_EQ(rec->done_time, sim::us(3.0));
}

TEST(Gpu, KernelsOnStreamRunInOrder) {
  Rig r;
  auto a = r.gpu.enqueue_kernel(KernelDesc{"a", 1, 64, nullptr});
  auto b = r.gpu.enqueue_kernel(KernelDesc{"b", 1, 64, nullptr});
  r.sim.run();
  EXPECT_EQ(b->launch_begin, a->done_time);
  EXPECT_EQ(b->done_time, sim::us(6.0));
}

TEST(Gpu, WorkGroupsExecuteConcurrentlyAcrossCus) {
  GpuConfig cfg = fast_config();
  cfg.cu_count = 4;
  cfg.wg_dispatch_latency = 0;
  Rig r(cfg);
  // 8 WGs of 1 us each on 4 CUs -> 2 waves -> 2 us exec.
  KernelDesc k;
  k.name = "waves";
  k.num_wgs = 8;
  k.fn = [](WorkGroupCtx& ctx) -> sim::Task<> {
    co_await ctx.compute(sim::us(1));
  };
  auto rec = r.gpu.enqueue_kernel(std::move(k));
  r.sim.run();
  EXPECT_EQ(rec->exec_end - rec->exec_begin, sim::us(2));
}

TEST(Gpu, ComputeFlopsMatchesThroughput) {
  GpuConfig cfg = fast_config();
  cfg.flops_per_cu_per_cycle = 128;
  cfg.clock_ghz = 1.0;  // 128 flops/ns per CU
  cfg.wg_dispatch_latency = 0;
  Rig r(cfg);
  KernelDesc k;
  k.num_wgs = 1;
  k.fn = [](WorkGroupCtx& ctx) -> sim::Task<> {
    co_await ctx.compute_flops(128000.0);  // 1000 ns
  };
  auto rec = r.gpu.enqueue_kernel(std::move(k));
  r.sim.run();
  EXPECT_EQ(rec->exec_end - rec->exec_begin, sim::us(1));
}

TEST(Gpu, SystemScopeStoreReachesMemoryAndCostsTime) {
  Rig r;
  mem::Addr target = r.memory.alloc(8);
  KernelDesc k;
  k.num_wgs = 1;
  k.fn = [target](WorkGroupCtx& ctx) -> sim::Task<> {
    co_await ctx.store_system(target, 1234);
  };
  r.gpu.enqueue_kernel(std::move(k));
  r.sim.run();
  EXPECT_EQ(r.memory.load<std::uint64_t>(target), 1234u);
}

TEST(Gpu, PollWaitsForFlag) {
  Rig r;
  mem::Addr flag = r.memory.alloc(8);
  r.memory.store<std::uint64_t>(flag, 0);
  sim::Tick seen_at = -1;
  KernelDesc k;
  k.num_wgs = 1;
  k.fn = [&r, flag, &seen_at](WorkGroupCtx& ctx) -> sim::Task<> {
    co_await ctx.wait_value_ge(flag, 5);
    seen_at = r.sim.now();
  };
  r.gpu.enqueue_kernel(std::move(k));
  r.sim.schedule_at(sim::us(20), [&] { r.memory.store<std::uint64_t>(flag, 5); });
  r.sim.run();
  EXPECT_GE(seen_at, sim::us(20));
  EXPECT_LT(seen_at, sim::us(21));
}

TEST(Gpu, MemoryModelHazardDetected) {
  // §4.2.6: a trigger store (MMIO) without an intervening release fence is
  // the correctness bug the paper warns about; the model flags it.
  Rig r;
  struct NullHandler : mem::MmioHandler {
    void on_mmio_store(mem::Addr, std::uint64_t) override {}
  } handler;
  mem::Addr trig = r.memory.map_mmio(8, &handler);
  mem::Addr buf = r.memory.alloc(64);

  KernelDesc bad;
  bad.num_wgs = 1;
  bad.fn = [trig, buf](WorkGroupCtx& ctx) -> sim::Task<> {
    ctx.store_data<std::uint64_t>(buf, 1);  // unfenced buffer write
    co_await ctx.store_system(trig, 42);    // hazard!
  };
  r.gpu.enqueue_kernel(std::move(bad));
  r.sim.run();
  EXPECT_EQ(r.gpu.memory_model_hazards(), 1u);

  KernelDesc good;
  good.num_wgs = 1;
  good.fn = [trig, buf](WorkGroupCtx& ctx) -> sim::Task<> {
    ctx.store_data<std::uint64_t>(buf, 2);
    co_await ctx.fence_system();          // release fence (Figure 7a)
    co_await ctx.store_system(trig, 43);  // safe
  };
  r.gpu.enqueue_kernel(std::move(good));
  r.sim.run();
  EXPECT_EQ(r.gpu.memory_model_hazards(), 1u) << "fenced store is not a hazard";
}

TEST(Gpu, WorkGroupIdsCoverGrid) {
  Rig r;
  std::vector<int> seen;
  KernelDesc k;
  k.num_wgs = 10;
  k.items_per_wg = 32;
  k.fn = [&seen](WorkGroupCtx& ctx) -> sim::Task<> {
    seen.push_back(ctx.wg_id());
    EXPECT_EQ(ctx.num_wgs(), 10);
    EXPECT_EQ(ctx.items_per_wg(), 32);
    EXPECT_EQ(ctx.leader_global_id(), ctx.wg_id() * 32);
    co_return;
  };
  r.gpu.enqueue_kernel(std::move(k));
  r.sim.run();
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
}

TEST(LaunchModel, AmortizedCurveDescendsToFloor) {
  LaunchModel m{"x", sim::us(4), sim::us(16)};
  EXPECT_EQ(m.launch_cost(1), sim::us(20));
  EXPECT_EQ(m.launch_cost(4), sim::us(8));
  EXPECT_GT(m.launch_cost(2), m.launch_cost(16));
  EXPECT_NEAR(sim::to_us(m.launch_cost(256)), 4.06, 0.01);
}

TEST(LaunchModel, Figure1ProfilesSpanDescribedEnvelope) {
  auto profiles = figure1_gpu_profiles();
  ASSERT_EQ(profiles.size(), 3u);
  for (const auto& p : profiles) {
    // "even the best case takes 3-4us": floor within envelope.
    EXPECT_GE(p.launch_cost(256), sim::us(3.0));
    EXPECT_LE(p.launch_cost(256), sim::us(4.5));
    // single-kernel cost within the 3-20 us range
    EXPECT_LE(p.launch_cost(1), sim::us(20.0));
    EXPECT_GT(p.launch_cost(1), p.launch_cost(256));
  }
}

TEST(Gpu, BatchedLaunchUsesQueueDepth) {
  GpuConfig cfg = fast_config();
  Rig r(cfg);
  r.gpu.set_launch_model({"t", sim::us(4), sim::us(16)});
  std::vector<std::shared_ptr<KernelRecord>> recs;
  for (int i = 0; i < 4; ++i) {
    recs.push_back(r.gpu.enqueue_kernel(KernelDesc{"e", 1, 64, nullptr}));
  }
  r.sim.run();
  // First kernel sees 4 commands queued: cost 4 + 16/4 = 8 us. Last sees 1:
  // 20 us.
  EXPECT_EQ(recs[0]->exec_begin - recs[0]->launch_begin, sim::us(8));
  EXPECT_EQ(recs[3]->exec_begin - recs[3]->launch_begin, sim::us(20));
}

}  // namespace
}  // namespace gputn::gpu

namespace gputn::gpu {
namespace {

TEST(Gpu, OccupancyAllowsMoreResidentWorkGroups) {
  GpuConfig cfg = fast_config();
  cfg.cu_count = 2;
  cfg.max_wgs_per_cu = 2;
  cfg.wg_dispatch_latency = 0;
  Rig r(cfg);
  // 8 WGs of 1 us on 2 CUs x occupancy 2 = 4 slots -> 2 waves -> 2 us.
  KernelDesc k;
  k.num_wgs = 8;
  k.fn = [](WorkGroupCtx& ctx) -> sim::Task<> {
    co_await ctx.compute(sim::us(1));
  };
  auto rec = r.gpu.enqueue_kernel(std::move(k));
  r.sim.run();
  EXPECT_EQ(rec->exec_end - rec->exec_begin, sim::us(2));
}

TEST(Gpu, PersistentKernelOversubscriptionLivelocks) {
  // A persistent kernel with more cross-synchronizing work-groups than
  // resident slots can never make progress: WG 0 polls a flag only WG 2
  // (never resident) would set. The model faithfully livelocks. The
  // spinning work-groups are parked on a flag nobody writes, so they leave
  // no event behind: an unbounded run drains the queue and returns with
  // the kernel unfinished instead of polling forever.
  GpuConfig cfg = fast_config();
  cfg.cu_count = 2;
  cfg.max_wgs_per_cu = 1;
  Rig r(cfg);
  mem::Addr flag = r.memory.alloc(8);
  r.memory.store<std::uint64_t>(flag, 0);
  KernelDesc k;
  k.num_wgs = 3;
  k.fn = [flag](WorkGroupCtx& ctx) -> sim::Task<> {
    if (ctx.wg_id() == 2) {
      co_await ctx.store_system(flag, 1);
    } else {
      co_await ctx.wait_value_ge(flag, 1);  // resident WGs spin forever
    }
  };
  auto rec = r.gpu.enqueue_kernel(std::move(k));
  r.sim.run();
  EXPECT_FALSE(rec->done.triggered()) << "livelock must not resolve";
  EXPECT_EQ(r.sim.pending_events(), 0u);
  EXPECT_LT(r.sim.now(), sim::us(10));

  // The same kernel with occupancy 2 has slots for all three WGs.
  GpuConfig ok_cfg = fast_config();
  ok_cfg.cu_count = 2;
  ok_cfg.max_wgs_per_cu = 2;
  Rig r2(ok_cfg);
  mem::Addr flag2 = r2.memory.alloc(8);
  r2.memory.store<std::uint64_t>(flag2, 0);
  KernelDesc k2;
  k2.num_wgs = 3;
  k2.fn = [flag2](WorkGroupCtx& ctx) -> sim::Task<> {
    if (ctx.wg_id() == 2) {
      co_await ctx.store_system(flag2, 1);
    } else {
      co_await ctx.wait_value_ge(flag2, 1);
    }
  };
  auto rec2 = r2.gpu.enqueue_kernel(std::move(k2));
  r2.sim.run_until(sim::ms(1));
  EXPECT_TRUE(rec2->done.triggered());
}

TEST(Gpu, DivergenceSerializesPaths) {
  Rig r;
  sim::Tick uniform = -1, divergent = -1;
  KernelDesc a;
  a.num_wgs = 1;
  a.fn = [](WorkGroupCtx& ctx) -> sim::Task<> {
    co_await ctx.diverged(1, sim::ns(400));
  };
  auto ra = r.gpu.enqueue_kernel(std::move(a));
  KernelDesc b;
  b.num_wgs = 1;
  b.fn = [](WorkGroupCtx& ctx) -> sim::Task<> {
    co_await ctx.diverged(4, sim::ns(400));  // 4-way divergence
  };
  auto rb = r.gpu.enqueue_kernel(std::move(b));
  r.sim.run();
  uniform = ra->exec_end - ra->exec_begin;
  divergent = rb->exec_end - rb->exec_begin;
  EXPECT_EQ(divergent - uniform, 3 * sim::ns(400));
}

}  // namespace
}  // namespace gputn::gpu
