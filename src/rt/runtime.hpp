// Per-node runtime: the host-facing APIs of the four evaluated strategies.
//
//   * Two-sided MPI-style send/recv (CPU + HDN baselines).
//   * One-sided put/get from the host.
//   * The GPU-TN host API of Figure 6: TrigPut / GetTriggerAddr, plus
//     completion-flag plumbing (§4.2.4).
//   * GDS-style pre-posting: stage a put on the GPU stream so the front-end
//     rings the doorbell at the preceding kernel's boundary.
//
// Software costs (packet construction, posting, polling) are modelled per
// CpuConfig; the runtime never does hidden zero-time work on the critical
// path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/triggered.hpp"
#include "cpu/cpu.hpp"
#include "gpu/gpu.hpp"
#include "mem/memory.hpp"
#include "nic/nic.hpp"

namespace gputn::rt {

class NodeRuntime {
 public:
  NodeRuntime(sim::Simulator& sim, cpu::Cpu& cpu, gpu::Gpu& gpu,
              nic::Nic& nic, core::TriggeredNic& trig, mem::Memory& memory)
      : sim_(&sim), cpu_(&cpu), gpu_(&gpu), nic_(&nic), trig_(&trig),
        mem_(&memory) {}
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  net::NodeId rank() const { return nic_->node_id(); }
  mem::Memory& memory() { return *mem_; }
  cpu::Cpu& cpu() { return *cpu_; }
  gpu::Gpu& gpu() { return *gpu_; }
  nic::Nic& nic() { return *nic_; }
  core::TriggeredNic& triggered() { return *trig_; }

  /// Allocate an 8-byte zero-initialized completion flag.
  mem::Addr alloc_flag();

  // -- Two-sided (MPI-style; used by the CPU and HDN configurations) ------
  /// Blocking send: pays the full host network-stack cost, rings the NIC,
  /// returns when the payload has left the buffer. With `host_staging`
  /// (pure-CPU baseline, no GPUDirect-style zero copy) the host first
  /// copies the payload into an eager bounce buffer.
  sim::Task<> send(net::NodeId dst, std::uint64_t tag, mem::Addr buf,
                   std::uint64_t bytes, bool host_staging = false);
  /// Blocking receive: posts the receive, then polls until the payload has
  /// landed in `buf`. With `host_staging` the host copies the payload out
  /// of the bounce buffer after it lands.
  sim::Task<> recv(net::NodeId src, std::uint64_t tag, mem::Addr buf,
                   std::uint64_t max_bytes, bool host_staging = false);

  // -- One-sided from the host ---------------------------------------------
  /// Post a put and return once it is handed to the NIC (non-blocking).
  sim::Task<> put_nb(nic::PutDesc put);
  /// Put and wait for local completion (buffer reusable).
  sim::Task<> put(nic::PutDesc put);

  // -- GPU-TN host API (Figure 6) -------------------------------------------
  /// TrigPut: construct the network packet and register it with the NIC
  /// trigger list. Pays the partial-network-stack post cost.
  sim::Task<> trig_put(core::Tag tag, std::uint64_t threshold,
                       nic::PutDesc put);
  /// GetTriggerAddr: the MMIO address kernels store tags to.
  mem::Addr trigger_addr() const { return trig_->trigger_address(); }

  // -- Kernel dispatch -------------------------------------------------------
  /// LaunchKern: pays the driver enqueue cost, places the kernel on the GPU
  /// stream, returns its record (completion observed via record->done).
  sim::Task<std::shared_ptr<gpu::KernelRecord>> launch(gpu::KernelDesc desc);
  /// Launch and wait for kernel completion (HDN-style synchronous use).
  sim::Task<> launch_sync(gpu::KernelDesc desc);

  // -- GDS-style stream network ops -----------------------------------------
  /// Pre-post a put on the GPU stream (fires at the previous kernel's
  /// boundary). Host pays the post cost now, off the critical path.
  sim::Task<> gds_stream_put(nic::PutDesc put);
  /// Stream-ordered wait until *addr >= value (front-end poll).
  void gds_stream_wait(mem::Addr addr, std::uint64_t value);

 private:
  /// A completion flag at 0 for send, recv or a put() without a flag of
  /// its own: a spare one reset, or a new one. The op gives it back once
  /// its wait is done (the NIC raises a flag once per operation), so node
  /// DRAM holds a flag per operation in flight, not per operation made.
  mem::Addr take_flag();

  sim::Simulator* sim_;
  cpu::Cpu* cpu_;
  gpu::Gpu* gpu_;
  nic::Nic* nic_;
  core::TriggeredNic* trig_;
  mem::Memory* mem_;
  std::vector<mem::Addr> spare_flags_;
};

}  // namespace gputn::rt
