// Unit tests for the per-node runtime facade (rt::NodeRuntime).
#include "rt/runtime.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "sim/sync.hpp"

namespace gputn::rt {
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
  cluster::Node& a() { return cluster.node(0); }
  cluster::Node& b() { return cluster.node(1); }
};

TEST(Runtime, AllocFlagIsZeroed) {
  Rig r;
  mem::Addr f = r.a().rt().alloc_flag();
  EXPECT_EQ(r.a().memory().load<std::uint64_t>(f), 0u);
}

TEST(Runtime, SendRecvAndPutRecycleTheirCompletionFlags) {
  // Each op takes a completion flag and gives it back once its wait is
  // done, so 1,000 rounds allocate no more node memory than the first.
  Rig r;
  mem::Addr src = r.a().memory().alloc(64);
  mem::Addr dst = r.b().memory().alloc(64);
  std::uint64_t first[2] = {0, 0};
  r.sim.spawn(
      [](Rig& rr, mem::Addr s, mem::Addr d,
         std::uint64_t* after_first) -> sim::Task<> {
        for (std::uint64_t i = 0; i < 1000; ++i) {
          std::vector<sim::Task<>> pair;
          pair.push_back(rr.a().rt().send(1, i, s, 64));
          pair.push_back(rr.b().rt().recv(0, i, d, 64));
          co_await sim::all(rr.sim, std::move(pair));
          nic::PutDesc put;
          put.target = 1;
          put.local_addr = s;
          put.bytes = 64;
          put.remote_addr = d;
          co_await rr.a().rt().put(put);
          if (i == 0) {
            after_first[0] = rr.a().memory().allocated_bytes();
            after_first[1] = rr.b().memory().allocated_bytes();
          }
        }
      }(r, src, dst, first),
      "rounds");
  r.sim.run();
  EXPECT_EQ(r.sim.live_processes(), 0);
  EXPECT_EQ(r.a().memory().allocated_bytes(), first[0]);
  EXPECT_EQ(r.b().memory().allocated_bytes(), first[1]);
}

TEST(Runtime, SendPaysStackCostBeforeDoorbell) {
  Rig r;
  mem::Addr src = r.a().memory().alloc(64);
  mem::Addr dst = r.b().memory().alloc(64);
  r.b().nic().post_recv(nic::RecvDesc{0, 1, dst, 64, 0, 1});
  sim::Tick done = -1;
  r.sim.spawn(
      [](Rig& rr, mem::Addr s, sim::Tick& out) -> sim::Task<> {
        co_await rr.a().rt().send(1, 1, s, 64);
        out = rr.sim.now();
      }(r, src, done),
      "sender");
  r.sim.run();
  // send returns at local completion: at least the stack cost plus
  // doorbell + command + DMA.
  EXPECT_GE(done, r.a().cpu().config().send_stack_cost);
}

TEST(Runtime, PutBlocksUntilLocalCompletion) {
  Rig r;
  mem::Addr src = r.a().memory().alloc(4096);
  mem::Addr dst = r.b().memory().alloc(4096);
  sim::Tick put_done = -1;
  r.sim.spawn(
      [](Rig& rr, mem::Addr s, mem::Addr d, sim::Tick& out) -> sim::Task<> {
        nic::PutDesc put;
        put.target = 1;
        put.local_addr = s;
        put.bytes = 4096;
        put.remote_addr = d;
        co_await rr.a().rt().put(put);
        out = rr.sim.now();
      }(r, src, dst, put_done),
      "putter");
  r.sim.run();
  EXPECT_GT(put_done, 0);
  // put() returned no later than the overall end (local completion strictly
  // precedes remote delivery, which the sim still had to finish).
  EXPECT_LE(put_done, r.sim.now());
}

TEST(Runtime, PutNbReturnsBeforeDelivery) {
  Rig r;
  mem::Addr src = r.a().memory().alloc(4096);
  mem::Addr dst = r.b().memory().alloc(4096);
  mem::Addr rflag = r.b().rt().alloc_flag();
  sim::Tick nb_done = -1;
  r.sim.spawn(
      [](Rig& rr, mem::Addr s, mem::Addr d, mem::Addr rf,
         sim::Tick& out) -> sim::Task<> {
        nic::PutDesc put;
        put.target = 1;
        put.local_addr = s;
        put.bytes = 4096;
        put.remote_addr = d;
        put.remote_flag = rf;
        co_await rr.a().rt().put_nb(put);
        out = rr.sim.now();
      }(r, src, dst, rflag, nb_done),
      "putter");
  r.sim.run();
  EXPECT_LT(nb_done, r.sim.now()) << "non-blocking post returns early";
  EXPECT_EQ(r.b().memory().load<std::uint64_t>(rflag), 1u);
}

TEST(Runtime, TrigPutRegistrationIsDelayedByDoorbell) {
  Rig r;
  mem::Addr src = r.a().memory().alloc(64);
  mem::Addr dst = r.b().memory().alloc(64);
  r.sim.spawn(
      [](Rig& rr, mem::Addr s, mem::Addr d) -> sim::Task<> {
        nic::PutDesc put;
        put.target = 1;
        put.local_addr = s;
        put.bytes = 64;
        put.remote_addr = d;
        co_await rr.a().rt().trig_put(7, 1, put);
        // Immediately after trig_put returns the registration write may
        // still be in flight (doorbell latency).
      }(r, src, dst),
      "host");
  r.sim.run_until(r.a().cpu().config().post_cost);
  EXPECT_EQ(r.a().triggered().table().total_ops(), 0)
      << "registration still in flight";
  r.sim.run();
  EXPECT_EQ(r.a().triggered().table().total_ops(), 1);
}

TEST(Runtime, GdsStreamWaitBlocksStream) {
  Rig r;
  mem::Addr flag = r.a().rt().alloc_flag();
  r.a().rt().gds_stream_wait(flag, 1);
  auto rec = r.a().gpu().enqueue_kernel(gpu::KernelDesc{"after", 1, 64, nullptr});
  r.sim.run_until(sim::us(50));
  EXPECT_FALSE(rec->done.triggered()) << "kernel must wait behind the wait op";
  r.a().memory().store<std::uint64_t>(flag, 1);
  r.sim.run();
  EXPECT_TRUE(rec->done.triggered());
}

TEST(Runtime, LaunchSyncCompletesAfterKernel) {
  Rig r;
  bool kernel_ran = false;
  sim::Tick host_resumed = -1;
  r.sim.spawn(
      [](Rig& rr, bool& ran, sim::Tick& out) -> sim::Task<> {
        gpu::KernelDesc k;
        k.num_wgs = 1;
        k.fn = [&ran](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          ran = true;
          co_await ctx.compute(sim::ns(100));
        };
        co_await rr.a().rt().launch_sync(std::move(k));
        out = rr.sim.now();
      }(r, kernel_ran, host_resumed),
      "host");
  r.sim.run();
  EXPECT_TRUE(kernel_ran);
  // launch enqueue + 1.5us launch + 0.1us body + 1.5us teardown + detection
  EXPECT_GE(host_resumed, sim::us(3.1));
}

TEST(Runtime, StagingSendsCostMoreThanZeroCopy) {
  auto run_send = [](bool staging) {
    Rig r;
    mem::Addr src = r.a().memory().alloc(16384);
    mem::Addr dst = r.b().memory().alloc(16384);
    r.b().nic().post_recv(nic::RecvDesc{0, 1, dst, 16384, 0, 1});
    sim::Tick done = -1;
    r.sim.spawn(
        [](Rig& rr, mem::Addr s, bool staging, sim::Tick& out) -> sim::Task<> {
          co_await rr.a().rt().send(1, 1, s, 16384, staging);
          out = rr.sim.now();
        }(r, src, staging, done),
        "sender");
    r.sim.run();
    return done;
  };
  EXPECT_GT(run_send(true), run_send(false));
}

}  // namespace
}  // namespace gputn::rt
