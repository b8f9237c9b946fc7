// Event pins for the hardware queues: each test drives one unit through the
// cases its queue rule distinguishes (a push to an idle unit, back-to-back
// pushes, a push during service, two pushes in one tick, slot contention,
// zero delays) and pins the exact ticks and Simulator::executed_events().
// The numbers are those of the coroutine pump each unit replaced, so they
// hold only if every unit emits its old event sequence. The GPU and CPU
// leaf-op pins hold the numbers of the coroutine ops the awaiters replaced.
// Where a pin runs processes (work-groups, run_op), its count is that
// code's less one reap event per process that returned: a returning
// process frees its own frame, in no event.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/triggered.hpp"
#include "cpu/cpu.hpp"
#include "gpu/gpu.hpp"
#include "mem/memory.hpp"
#include "net/fabric.hpp"
#include "net/link.hpp"
#include "nic/nic.hpp"
#include "sim/simulator.hpp"

namespace gputn {
namespace {

using sim::ns;
using sim::us;

net::Packet packet(std::uint32_t bytes) {
  net::Packet p;
  p.flight = std::make_shared<net::MessageInFlight>();
  p.flight->packets_remaining = 1;
  p.wire_bytes = bytes;
  return p;
}

TEST(EventPin, Link) {
  sim::Simulator sim;
  std::vector<sim::Tick> arrivals;
  // 1 byte/ns, 100 ns propagation.
  net::Link link(sim, "t", sim::Bandwidth::bytes_per_sec(1e9), ns(100),
                 [&](net::Packet&&) { arrivals.push_back(sim.now()); });
  link.submit(packet(100));  // to an idle link
  sim.schedule_at(ns(50), [&] { link.submit(packet(100)); });  // in service
  sim.schedule_at(ns(300), [&] {  // two in one tick, to an idle link
    link.submit(packet(100));
    link.submit(packet(100));
  });
  // A zero-byte packet serializes in no time: no serialization event.
  sim.schedule_at(ns(600), [&] { link.submit(packet(0)); });
  sim.run();
  EXPECT_EQ(arrivals, (std::vector<sim::Tick>{ns(200), ns(300), ns(500),
                                              ns(600), ns(700)}));
  EXPECT_EQ(link.util().ops(), 5u);
  EXPECT_EQ(sim.executed_events(), 15u);
}

/// Two NICs on a star, with a trigger unit on node 0.
struct NicRig {
  explicit NicRig(nic::NicConfig cfg = {}) {
    for (int i = 0; i < 2; ++i) {
      mems.push_back(std::make_unique<mem::Memory>(1 << 22));
      nics.push_back(
          std::make_unique<nic::Nic>(sim, *mems.back(), fabric, cfg));
    }
    trig = std::make_unique<core::TriggeredNic>(sim, *nics[0], *mems[0],
                                                core::TriggeredNicConfig{});
  }
  ~NicRig() { sim.reap_processes(); }

  mem::Memory& mem(int i) { return *mems[i]; }
  nic::Nic& nic(int i) { return *nics[i]; }
  /// A put of `bytes` from node 0 to node 1, raising a fresh remote flag
  /// to 1.
  nic::PutDesc put(std::uint64_t bytes) {
    nic::PutDesc p;
    p.target = 1;
    p.local_addr = mem(0).alloc(bytes);
    p.bytes = bytes;
    p.remote_addr = mem(1).alloc(bytes);
    p.remote_flag = mem(1).alloc(8);
    return p;
  }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::FabricConfig{}};
  std::vector<std::unique_ptr<mem::Memory>> mems;
  std::vector<std::unique_ptr<nic::Nic>> nics;
  std::unique_ptr<core::TriggeredNic> trig;
};

TEST(EventPin, TriggerUnit) {
  NicRig r;
  nic::PutDesc p = r.put(64);
  r.trig->register_put(/*tag=*/5, /*threshold=*/3, p);
  mem::Addr trigger = r.trig->trigger_address();
  r.mem(0).mmio_store(trigger, 5);  // to an idle unit
  r.sim.schedule_at(ns(2), [&] { r.mem(0).mmio_store(trigger, 9); });
  r.sim.schedule_at(ns(100), [&] {  // two in one tick; the second fires
    r.mem(0).mmio_store(trigger, 5);
    r.mem(0).mmio_store(trigger, 5);
  });
  r.sim.run();
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(p.remote_flag), 1u);
  EXPECT_EQ(r.trig->triggers_received(), 4u);
  EXPECT_EQ(r.trig->fifo_high_water(), 2u);
  EXPECT_EQ(r.sim.now(), 549680);
  EXPECT_EQ(r.sim.executed_events(), 21u);
}

TEST(EventPin, NicCommandQueue) {
  NicRig r;
  nic::PutDesc a = r.put(64);
  r.nic(0).ring_doorbell(a);  // reaches an idle queue at 40 ns
  nic::GetDesc g;
  g.target = 1;
  g.local_addr = r.mem(0).alloc(64);
  g.bytes = 64;
  g.remote_addr = r.mem(1).alloc(64);
  g.local_flag = r.mem(0).alloc(8);
  // Reaches the queue at 50 ns, with the put in service.
  r.sim.schedule_at(ns(10), [&] { r.nic(0).ring_doorbell(g); });
  nic::PutDesc b = r.put(4096);
  nic::PutDesc c = r.put(64);
  r.sim.schedule_at(ns(500), [&] {  // two in one tick, to an idle queue
    r.nic(0).ring_doorbell(b);
    r.nic(0).ring_doorbell(c);
  });
  r.sim.run();
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(c.remote_flag), 1u);
  EXPECT_EQ(r.mem(0).load<std::uint64_t>(g.local_flag), 1u);
  EXPECT_EQ(r.nic(0).cmd_util().ops(), 4u);
  EXPECT_EQ(r.nic(0).cmd_util().busy_ps(r.sim.now()), 201120u);
  EXPECT_EQ(r.sim.now(), 1715600);
  EXPECT_EQ(r.sim.executed_events(), 66u);
}

TEST(EventPin, NicZeroCosts) {
  // Every NIC delay at zero: the engines run each step inline.
  nic::NicConfig cfg;
  cfg.doorbell_latency = 0;
  cfg.cmd_fetch = 0;
  cfg.rx_pipeline = 0;
  cfg.dma_startup = 0;
  cfg.dma_bandwidth = sim::Bandwidth::bytes_per_sec(1e18);
  NicRig r(cfg);
  nic::PutDesc a = r.put(64);
  nic::PutDesc b = r.put(64);
  r.nic(0).ring_doorbell(a);
  r.nic(0).ring_doorbell(b);
  r.sim.run();
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(b.remote_flag), 1u);
  EXPECT_EQ(r.sim.now(), 334560);
  EXPECT_EQ(r.sim.executed_events(), 17u);
}

TEST(EventPin, DmaContention) {
  // Node 0's TX DMA reads a 256 KiB put payload while node 1's get request
  // arrives: the get reply's read waits for the engine and starts in the
  // hand-off. Node 1's RX engine then lands both.
  NicRig r;
  nic::PutDesc p = r.put(256 * 1024);
  r.nic(0).ring_doorbell(p);
  nic::GetDesc g;
  g.target = 0;
  g.local_addr = r.mem(1).alloc(4096);
  g.bytes = 4096;
  g.remote_addr = r.mem(0).alloc(4096);
  g.local_flag = r.mem(1).alloc(8);
  r.nic(1).ring_doorbell(g);
  r.sim.run();
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(p.remote_flag), 1u);
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(g.local_flag), 1u);
  EXPECT_EQ(r.nic(0).tx_dma_util().ops(), 2u);
  EXPECT_EQ(r.nic(0).tx_dma_util().queue_time_ps(r.sim.now()), 977920u);
  EXPECT_EQ(r.sim.now(), 24540720);
  EXPECT_EQ(r.sim.executed_events(), 423u);
}

gpu::GpuConfig gpu_config() {
  gpu::GpuConfig c;
  c.launch_latency = us(1.5);
  c.teardown_latency = us(1.5);
  return c;
}

TEST(EventPin, GpuFrontEnd) {
  sim::Simulator sim;
  mem::Memory memory(1 << 22);
  gpu::Gpu gpu(sim, memory, gpu_config());
  mem::Addr set = memory.alloc(8);
  mem::Addr later = memory.alloc(8);
  memory.store<std::uint64_t>(set, 1);
  auto k1 = gpu.enqueue_kernel(gpu::KernelDesc{"k1", 1, 64, nullptr});
  gpu.enqueue_gds_wait(set, 1);    // satisfied before it starts
  gpu.enqueue_gds_wait(later, 1);  // satisfied at 5 us
  gpu::KernelDesc k;
  k.name = "k2";
  k.num_wgs = 2;
  k.fn = [](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
    co_await ctx.compute(ns(100));
  };
  auto k2 = gpu.enqueue_kernel(std::move(k));
  sim.schedule_at(us(5), [&] { memory.store<std::uint64_t>(later, 1); });
  // Pushed during service, behind the wait.
  sim.schedule_at(us(4), [&] {
    gpu.enqueue_kernel(gpu::KernelDesc{"k3", 1, 64, nullptr});
  });
  sim.run();
  EXPECT_EQ(k1->done_time, us(3));
  EXPECT_EQ(k2->launch_begin, 5000000);
  EXPECT_EQ(k2->exec_end, 6620000);
  EXPECT_EQ(k2->done_time, 8120000);
  EXPECT_EQ(sim.now(), 11120000);
  EXPECT_EQ(sim.executed_events(), 15u);
  sim.reap_processes();
}

TEST(EventPin, GpuWorkGroupSlots) {
  // Five 1 us work-groups on two slots, dispatched with no latency: three
  // waves, two hand-offs in one tick per wave.
  gpu::GpuConfig cfg = gpu_config();
  cfg.cu_count = 1;
  cfg.max_wgs_per_cu = 2;
  cfg.wg_dispatch_latency = 0;
  sim::Simulator sim;
  mem::Memory memory(1 << 22);
  gpu::Gpu gpu(sim, memory, cfg);
  gpu::KernelDesc k;
  k.num_wgs = 5;
  k.fn = [](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
    co_await ctx.compute(us(1));
  };
  auto rec = gpu.enqueue_kernel(std::move(k));
  sim.run();
  EXPECT_EQ(rec->exec_end - rec->exec_begin, us(3));
  EXPECT_EQ(gpu.cu_util().ops(), 5u);
  EXPECT_EQ(sim.now(), 6000000);
  EXPECT_EQ(sim.executed_events(), 12u);
  sim.reap_processes();
}

/// The tick a leaf op completes at and executed_events() after its run.
using Done = std::pair<sim::Tick, std::uint64_t>;

/// Runs the leaf op `make()` returns in a process of its own, to the end of
/// the queue: one event for its delay, none when it completes inline. The
/// process frees its frame as it returns, in no event of its own.
template <typename MakeOp>
Done run_op(sim::Simulator& sim, MakeOp make) {
  sim.spawn([](MakeOp m) -> sim::Task<> { co_await m(); }(std::move(make)),
            "op");
  sim.run();
  return {sim.now(), sim.executed_events()};
}

/// Records the tick and value of each store to its MMIO window.
struct MmioLog : mem::MmioHandler {
  explicit MmioLog(sim::Simulator& s) : sim(&s) {}
  void on_mmio_store(mem::Addr, std::uint64_t value) override {
    stores.emplace_back(sim->now(), value);
  }
  sim::Simulator* sim;
  std::vector<std::pair<sim::Tick, std::uint64_t>> stores;
};

TEST(EventPin, GpuLeafOps) {
  sim::Simulator sim;
  mem::Memory memory(1 << 22);
  gpu::Gpu gpu(sim, memory, gpu_config());
  gpu::WorkGroupCtx ctx(gpu, 0, 1, 64);
  MmioLog log(sim);
  mem::Addr doorbell = memory.map_mmio(8, &log);
  mem::Addr word = memory.alloc(8);
  std::vector<Done> done;
  done.push_back(run_op(sim, [&] { return ctx.compute(ns(100)); }));
  done.push_back(run_op(sim, [&] { return ctx.compute(0); }));  // inline
  done.push_back(run_op(sim, [&] { return ctx.compute_flops(12800.0); }));
  done.push_back(run_op(sim, [&] { return ctx.compute_mem(4096); }));
  done.push_back(run_op(sim, [&] { return ctx.compute_mem(0); }));  // inline
  done.push_back(run_op(sim, [&] { return ctx.barrier(); }));
  done.push_back(run_op(sim, [&] { return ctx.diverged(3, ns(10)); }));
  done.push_back(run_op(sim, [&] { return ctx.diverged(0, ns(10)); }));

  // The fence clears the hazard state when it completes, not before.
  ctx.mark_dirty();
  bool dirty_during_fence = false;
  sim.schedule_in(1, [&] { dirty_during_fence = ctx.has_unfenced_writes(); });
  done.push_back(run_op(sim, [&] { return ctx.fence_system(); }));
  EXPECT_TRUE(dirty_during_fence);
  EXPECT_FALSE(ctx.has_unfenced_writes());

  // A DRAM store lands when its latency has passed, not before.
  std::uint64_t before_landing = 1;
  sim.schedule_in(ns(80) - 1,
                  [&] { before_landing = memory.load<std::uint64_t>(word); });
  done.push_back(run_op(sim, [&] { return ctx.store_system(word, 7); }));
  EXPECT_EQ(before_landing, 0u);
  EXPECT_EQ(memory.load<std::uint64_t>(word), 7u);

  // A trigger store with unfenced writes counts its hazard at the call;
  // the MMIO store lands at the end of its delay.
  ctx.mark_dirty();
  std::uint64_t hazards_during_store = 0;
  sim.schedule_in(1, [&] { hazards_during_store = gpu.memory_model_hazards(); });
  done.push_back(run_op(sim, [&] { return ctx.store_system(doorbell, 9); }));
  EXPECT_EQ(hazards_during_store, 1u);
  EXPECT_EQ(gpu.memory_model_hazards(), 1u);
  EXPECT_EQ(log.stores,
            (std::vector<std::pair<sim::Tick, std::uint64_t>>{{776102, 9}}));

  EXPECT_EQ(done, (std::vector<Done>{{100000, 1},
                                     {100000, 1},
                                     {200000, 2},
                                     {486102, 3},
                                     {486102, 3},
                                     {516102, 4},
                                     {546102, 5},
                                     {556102, 6},
                                     {616102, 8},
                                     {696102, 10},
                                     {776102, 12}}));
}

TEST(EventPin, CpuLeafOps) {
  sim::Simulator sim;
  mem::Memory memory(1 << 22);
  cpu::Cpu cpu(sim, memory, cpu::CpuConfig{});
  const obs::BusyTracker& util = cpu.util();
  std::vector<Done> done;
  /// The ledger after each op: busy unit-picoseconds and ops.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ledger;
  auto step = [&](auto make) {
    done.push_back(run_op(sim, make));
    ledger.emplace_back(util.busy_ps(sim.now()), util.ops());
  };
  step([&] { return cpu.compute(ns(100)); });
  step([&] { return cpu.compute(0); });  // inline: acquires and releases
  step([&] { return cpu.compute_flops_serial(6400.0); });
  // The parallel phase holds every core while it runs.
  int in_use_during = 0;
  sim.schedule_in(1, [&] { in_use_during = util.in_use(); });
  step([&] { return cpu.compute_parallel(1e6, 1 << 20); });
  EXPECT_EQ(in_use_during, cpu.config().cores);
  step([&] { return cpu.compute_parallel(0.0, 0); });  // inline, all cores
  step([&] { return cpu.staging_copy(1 << 20); });
  step([&] { return cpu.staging_copy(0); });  // inline
  EXPECT_EQ(util.in_use(), 0);
  EXPECT_EQ(util.in_use_max(), cpu.config().cores);

  EXPECT_EQ(done, (std::vector<Done>{{100000, 1},
                                     {100000, 1},
                                     {200000, 2},
                                     {2641406, 4},
                                     {2641406, 4},
                                     {5082812, 5},
                                     {5082812, 5}}));
  EXPECT_EQ(ledger, (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                        {100000, 1},
                        {100000, 2},
                        {200000, 3},
                        {19731248, 11},
                        {19731248, 19},
                        {22172654, 20},
                        {22172654, 21}}));
}

}  // namespace
}  // namespace gputn
