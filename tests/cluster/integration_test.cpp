// End-to-end integration tests over assembled nodes: the full Figure 6 / 7
// flows at every trigger granularity, HDN-style kernel-boundary messaging,
// GDS streams, and cross-node data integrity.
#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "sim/sync.hpp"

namespace gputn::cluster {
namespace {

SystemConfig small_config() {
  SystemConfig c = SystemConfig::table2();
  c.dram_bytes = 8ull << 20;
  return c;
}

TEST(Cluster, BuildsTable2Nodes) {
  sim::Simulator sim;
  Cluster cluster(sim, small_config(), 4);
  EXPECT_EQ(cluster.size(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.node(i).id(), i);
    EXPECT_EQ(cluster.node(i).gpu().config().cu_count, 24);
  }
  EXPECT_FALSE(SystemConfig::table2().describe().empty());
}

// The complete GPU-TN flow of Figure 6 (host) + Figure 7c (kernel-level):
// CPU registers a triggered put with threshold = #work-groups; each WG's
// leader stores the tag after a barrier; the NIC fires when all WGs arrive.
TEST(Cluster, GpuTnKernelLevelFlow) {
  sim::Simulator sim;
  Cluster cluster(sim, small_config(), 2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  const int kWgs = 8;
  const std::uint64_t kBytes = 4096;
  mem::Addr src = n0.memory().alloc(kBytes);
  mem::Addr dst = n1.memory().alloc(kBytes);
  mem::Addr rflag = n1.rt().alloc_flag();

  sim.spawn(
      [](Node& a, int wgs, std::uint64_t bytes, mem::Addr s, mem::Addr d,
         mem::Addr rf) -> sim::Task<> {
        nic::PutDesc put;
        put.target = 1;
        put.local_addr = s;
        put.bytes = bytes;
        put.remote_addr = d;
        put.remote_flag = rf;
        co_await a.rt().trig_put(/*tag=*/1, /*threshold=*/wgs, put);

        mem::Addr trig = a.rt().trigger_addr();
        gpu::KernelDesc k;
        k.name = "kern3";
        k.num_wgs = wgs;
        k.fn = [trig, s, bytes, wgs](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          // Each WG fills its slice of the send buffer.
          std::uint64_t slice = bytes / static_cast<std::uint64_t>(wgs);
          for (std::uint64_t i = 0; i < slice / 8; ++i) {
            ctx.store_data<std::uint64_t>(s + ctx.wg_id() * slice + i * 8,
                                          100 + ctx.wg_id());
          }
          co_await ctx.compute_mem(slice);
          co_await ctx.barrier();
          if (true /* leader work-item */) {
            co_await ctx.fence_system();
            co_await ctx.store_system(trig, /*tag=*/1);
          }
        };
        co_await a.rt().launch_sync(std::move(k));
      }(n0, kWgs, kBytes, src, dst, rflag),
      "host0");

  sim.run();
  EXPECT_EQ(n1.memory().load<std::uint64_t>(rflag), 1u);
  for (int wg = 0; wg < kWgs; ++wg) {
    EXPECT_EQ(n1.memory().load<std::uint64_t>(dst + wg * (kBytes / kWgs)),
              100u + wg);
  }
  EXPECT_EQ(n0.gpu().memory_model_hazards(), 0u);
  EXPECT_EQ(n0.triggered().triggers_received(), static_cast<std::uint64_t>(kWgs));
}

// Figure 7b: work-group-level networking — one message per work-group,
// threshold 1, tag = tagBase + group id.
TEST(Cluster, GpuTnWorkGroupLevelFlow) {
  sim::Simulator sim;
  Cluster cluster(sim, small_config(), 2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  const int kWgs = 4;
  const std::uint64_t kSlice = 512;
  mem::Addr src = n0.memory().alloc(kSlice * kWgs);
  mem::Addr dst = n1.memory().alloc(kSlice * kWgs);
  std::vector<mem::Addr> flags;
  for (int i = 0; i < kWgs; ++i) flags.push_back(n1.rt().alloc_flag());

  sim.spawn(
      [](Node& a, const std::vector<mem::Addr>& fl, mem::Addr s, mem::Addr d,
         std::uint64_t slice, int wgs) -> sim::Task<> {
        for (int wg = 0; wg < wgs; ++wg) {
          nic::PutDesc put;
          put.target = 1;
          put.local_addr = s + wg * slice;
          put.bytes = slice;
          put.remote_addr = d + wg * slice;
          put.remote_flag = fl[wg];
          co_await a.rt().trig_put(/*tagBase+wg=*/10 + wg, 1, put);
        }
        mem::Addr trig = a.rt().trigger_addr();
        gpu::KernelDesc k;
        k.name = "kern2";
        k.num_wgs = wgs;
        k.fn = [trig, s, slice](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          ctx.store_data<std::uint64_t>(s + ctx.wg_id() * slice,
                                        7000 + ctx.wg_id());
          co_await ctx.compute_mem(slice);
          co_await ctx.barrier();
          co_await ctx.fence_system();
          co_await ctx.store_system(trig, 10 + ctx.wg_id());
        };
        co_await a.rt().launch_sync(std::move(k));
      }(n0, flags, src, dst, kSlice, kWgs),
      "host0");

  sim.run();
  for (int wg = 0; wg < kWgs; ++wg) {
    EXPECT_EQ(n1.memory().load<std::uint64_t>(flags[wg]), 1u);
    EXPECT_EQ(n1.memory().load<std::uint64_t>(dst + wg * kSlice), 7000u + wg);
  }
  EXPECT_EQ(cluster.fabric().messages_sent(),
            static_cast<std::uint64_t>(kWgs));  // one put per work-group
}

// Relaxed synchronization at system level (§3.2/§4.1): the kernel is
// launched *before* the triggered op is posted; overlap is safe.
TEST(Cluster, GpuTnPostAfterLaunchOverlap) {
  sim::Simulator sim;
  Cluster cluster(sim, small_config(), 2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  mem::Addr src = n0.memory().alloc(64);
  mem::Addr dst = n1.memory().alloc(64);
  mem::Addr rflag = n1.rt().alloc_flag();
  n0.memory().store<std::uint64_t>(src, 31337);

  sim.spawn(
      [](Node& a, mem::Addr s, mem::Addr d, mem::Addr rf) -> sim::Task<> {
        mem::Addr trig = a.rt().trigger_addr();
        gpu::KernelDesc k;
        k.num_wgs = 1;
        k.fn = [trig](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          co_await ctx.fence_system();
          co_await ctx.store_system(trig, 77);  // trigger fires FIRST
        };
        auto rec = co_await a.rt().launch(std::move(k));
        // Post the operation late: well after the trigger has been written.
        co_await a.rt().cpu().compute(sim::us(30));
        nic::PutDesc put;
        put.target = 1;
        put.local_addr = s;
        put.bytes = 64;
        put.remote_addr = d;
        put.remote_flag = rf;
        co_await a.rt().trig_put(77, 1, put);
        co_await rec->done.wait();
      }(n0, src, dst, rflag),
      "host0");

  sim.run();
  EXPECT_EQ(n1.memory().load<std::uint64_t>(dst), 31337u);
  EXPECT_GE(n0.triggered().table().orphans_created(), 1u);
}

// HDN-style kernel-boundary exchange: kernel, then host send/recv.
TEST(Cluster, HdnSendRecvAcrossNodes) {
  sim::Simulator sim;
  Cluster cluster(sim, small_config(), 2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  mem::Addr src = n0.memory().alloc(1024);
  mem::Addr dst = n1.memory().alloc(1024);
  bool received = false;

  sim.spawn(
      [](Node& a, mem::Addr s) -> sim::Task<> {
        gpu::KernelDesc k;
        k.num_wgs = 2;
        k.fn = [s](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          ctx.store_data<std::uint64_t>(s + ctx.wg_id() * 8,
                                        500 + ctx.wg_id());
          co_await ctx.compute(sim::ns(100));
        };
        co_await a.rt().launch_sync(std::move(k));
        co_await a.rt().send(1, /*tag=*/3, s, 1024);
      }(n0, src),
      "host0");
  sim.spawn(
      [](Node& b, mem::Addr d, bool& ok) -> sim::Task<> {
        co_await b.rt().recv(0, /*tag=*/3, d, 1024);
        ok = b.memory().load<std::uint64_t>(d) == 500 &&
             b.memory().load<std::uint64_t>(d + 8) == 501;
      }(n1, dst, received),
      "host1");

  sim.run();
  EXPECT_TRUE(received);
}

// GDS stream: kernel + pre-posted put; the GPU front-end rings the doorbell
// at the kernel boundary without host involvement.
TEST(Cluster, GdsStreamPutAtKernelBoundary) {
  sim::Simulator sim;
  Cluster cluster(sim, small_config(), 2);
  auto& n0 = cluster.node(0);
  auto& n1 = cluster.node(1);

  mem::Addr src = n0.memory().alloc(64);
  mem::Addr dst = n1.memory().alloc(64);
  mem::Addr rflag = n1.rt().alloc_flag();
  sim::Tick kernel_done = -1, host_free = -1;

  sim.spawn(
      [](sim::Simulator& s, Node& a, mem::Addr sr, mem::Addr d, mem::Addr rf,
         sim::Tick& kdone, sim::Tick& hfree) -> sim::Task<> {
        gpu::KernelDesc k;
        k.num_wgs = 1;
        k.fn = [sr](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          ctx.store_data<std::uint64_t>(sr, 246);
          co_await ctx.compute(sim::ns(400));
        };
        auto rec = co_await a.rt().launch(std::move(k));
        nic::PutDesc put;
        put.target = 1;
        put.local_addr = sr;
        put.bytes = 64;
        put.remote_addr = d;
        put.remote_flag = rf;
        co_await a.rt().gds_stream_put(put);
        hfree = s.now();  // host is done well before the kernel completes
        co_await rec->done.wait();
        kdone = s.now();
      }(sim, n0, src, dst, rflag, kernel_done, host_free),
      "host0");

  sim.run();
  EXPECT_EQ(n1.memory().load<std::uint64_t>(dst), 246u);
  EXPECT_LT(host_free, kernel_done);
}

// Data integrity across many concurrent node pairs (conservation).
TEST(Cluster, AllPairsExchangeIntegrity) {
  sim::Simulator sim;
  Cluster cluster(sim, small_config(), 4);
  const std::uint64_t kBytes = 2048;
  std::vector<std::vector<mem::Addr>> dst(4, std::vector<mem::Addr>(4));
  for (int r = 0; r < 4; ++r) {
    for (int s = 0; s < 4; ++s) {
      dst[r][s] = cluster.node(r).memory().alloc(kBytes);
    }
  }
  int completed = 0;
  for (int me = 0; me < 4; ++me) {
    sim.spawn(
        [](Cluster& cl, int self, std::vector<std::vector<mem::Addr>>& d,
           std::uint64_t bytes, int& done) -> sim::Task<> {
          auto& node = cl.node(self);
          mem::Addr src = node.memory().alloc(bytes);
          for (std::uint64_t i = 0; i < bytes / 8; ++i) {
            node.memory().store<std::uint64_t>(src + i * 8,
                                               self * 1'000'000 + i);
          }
          for (int peer = 0; peer < cl.size(); ++peer) {
            if (peer == self) continue;
            co_await node.rt().send(peer, /*tag=*/self * 10, src, bytes);
          }
          for (int peer = 0; peer < cl.size(); ++peer) {
            if (peer == self) continue;
            co_await node.rt().recv(peer, /*tag=*/peer * 10, d[self][peer],
                                    bytes);
          }
          ++done;
        }(cluster, me, dst, kBytes, completed),
        "node" + std::to_string(me));
  }
  sim.run();
  EXPECT_EQ(completed, 4);
  for (int r = 0; r < 4; ++r) {
    for (int s = 0; s < 4; ++s) {
      if (r == s) continue;
      for (std::uint64_t i = 0; i < kBytes / 8; i += 64) {
        ASSERT_EQ(cluster.node(r).memory().load<std::uint64_t>(dst[r][s] + i * 8),
                  static_cast<std::uint64_t>(s) * 1'000'000 + i)
            << "r=" << r << " s=" << s << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace gputn::cluster
