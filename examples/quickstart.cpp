// Quickstart: the complete GPU-TN flow from Figure 6 (host) and Figure 7c
// (kernel) on a simulated 2-node cluster.
//
//   1. RdmaInit      -> build a Cluster (CPU + GPU + NIC + trigger unit per
//                       node, star fabric)
//   2. TrigPut       -> rt().trig_put(tag, threshold, put)
//   3. GetTriggerAddr-> rt().trigger_addr()
//   4. LaunchKern    -> rt().launch(...); the kernel writes its buffer,
//                       issues a release fence, and stores the tag to the
//                       trigger address
//   5. The NIC matches the tag, counts to the threshold, and fires the put;
//      the target observes completion through a NIC-written flag.
//
// Build: cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "cluster/cluster.hpp"
#include "sim/sync.hpp"

using namespace gputn;

int main() {
  sim::Simulator sim;
  cluster::SystemConfig config = cluster::SystemConfig::table2();
  config.dram_bytes = 8u << 20;
  cluster::Cluster cluster(sim, config, /*nodes=*/2);

  auto& initiator = cluster.node(0);
  auto& target = cluster.node(1);

  // A message buffer on the initiator and a landing zone + completion flag
  // on the target.
  constexpr std::uint64_t kBytes = 4096;
  constexpr int kWorkGroups = 8;
  mem::Addr send_buf = initiator.memory().alloc(kBytes);
  mem::Addr recv_buf = target.memory().alloc(kBytes);
  mem::Addr done_flag = target.rt().alloc_flag();

  // Host-side program on node 0 (Figure 6).
  sim.spawn(
      [](cluster::Node& node, mem::Addr send_buf, mem::Addr recv_buf,
         mem::Addr done_flag) -> sim::Task<> {
        // (2) Register the triggered put: fire when every work-group of the
        // kernel has stored the tag (kernel-level granularity, Figure 7c).
        nic::PutDesc put;
        put.target = 1;
        put.local_addr = send_buf;
        put.bytes = kBytes;
        put.remote_addr = recv_buf;
        put.remote_flag = done_flag;
        co_await node.rt().trig_put(/*tag=*/42, /*threshold=*/kWorkGroups,
                                    put);

        // (3) The memory-mapped trigger address, passed as a kernel arg.
        mem::Addr trig_addr = node.rt().trigger_addr();

        // (4) The kernel: each work-group fills its slice of the buffer,
        // then the leader stores the tag after a barrier + release fence.
        gpu::KernelDesc kernel;
        kernel.name = "quickstart";
        kernel.num_wgs = kWorkGroups;
        kernel.fn = [trig_addr, send_buf](gpu::WorkGroupCtx& ctx)
            -> sim::Task<> {
          std::uint64_t slice = kBytes / ctx.num_wgs();
          for (std::uint64_t i = 0; i < slice / 8; ++i) {
            ctx.store_data<std::uint64_t>(
                send_buf + ctx.wg_id() * slice + i * 8,
                0xC0FFEE00 + ctx.wg_id());
          }
          co_await ctx.compute_mem(slice);   // the "do work" part
          co_await ctx.barrier();            // work_group_barrier(...)
          co_await ctx.fence_system();       // release to system scope
          co_await ctx.store_system(trig_addr, /*tag=*/42);
        };
        co_await node.rt().launch_sync(std::move(kernel));
        std::printf("[%8.3f us] initiator: kernel complete\n",
                    sim::to_us(node.gpu().simulator().now()));
      }(initiator, send_buf, recv_buf, done_flag),
      "initiator-host");

  // Host-side program on node 1: poll the NIC-written completion flag.
  sim.spawn(
      [](cluster::Node& node, mem::Addr flag, mem::Addr recv_buf)
          -> sim::Task<> {
        co_await node.cpu().wait_value_ge(flag, 1);
        std::printf("[%8.3f us] target: payload landed, first word = 0x%llx\n",
                    sim::to_us(node.cpu().simulator().now()),
                    static_cast<unsigned long long>(
                        node.memory().load<std::uint64_t>(recv_buf)));
      }(target, done_flag, recv_buf),
      "target-host");

  sim.run();

  std::printf("\ntriggers received by NIC : %llu\n",
              static_cast<unsigned long long>(
                  initiator.triggered().triggers_received()));
  // The one message on the lossless fabric is the put to the target.
  std::printf("puts delivered           : %llu\n",
              static_cast<unsigned long long>(
                  cluster.fabric().messages_sent()));
  std::printf("memory-model hazards     : %llu (0 = kernel fenced correctly)\n",
              static_cast<unsigned long long>(
                  initiator.gpu().memory_model_hazards()));
  return 0;
}
