// Host CPU model.
//
// Host code runs as simulator coroutines; the Cpu object models aggregate
// compute throughput (Table 2: 8-wide OOO, 4 GHz, 8 cores) and the software
// costs of the networking runtime (message setup, posting, polling) that the
// paper's strategies pay in different places.
#pragma once

#include <cstdint>

#include "mem/memory.hpp"
#include "mem/spin_wait.hpp"
#include "obs/busy.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"

namespace gputn::cpu {

struct CpuConfig {
  int cores = 8;             // Table 2
  double clock_ghz = 4.0;    // Table 2
  /// Sustained flops per core per cycle (8-wide OOO with FMA SIMD).
  double flops_per_core_per_cycle = 16.0;
  /// Parallel-efficiency factor for OpenMP-style loops.
  double parallel_efficiency = 0.85;
  /// Aggregate DRAM bandwidth (Table 2: DDR4, 8 channels, 2133 MHz).
  sim::Bandwidth mem_bandwidth = sim::Bandwidth::gibps(127);
  /// L3 capacity and bandwidth (Table 2: 16 MB L3). Working sets that fit
  /// in L3 stream much faster — this is what makes the CPU competitive on
  /// small problems (Figures 9 and 10 crossovers).
  std::uint64_t l3_bytes = 16ull << 20;
  sim::Bandwidth l3_bandwidth = sim::Bandwidth::gibps(400);
  /// Per-operation bytes below which the L3 tier applies. Streaming
  /// kernels share the L3 with the rest of the working set (vectors, MPI
  /// internals, DMA-fresh lines), so only ops well under the capacity see
  /// cache-speed service; 1/8 of L3 is a standard effective-residency rule.
  std::uint64_t l3_tier_bytes = 2ull << 20;
  /// Two-sided MPI staging-copy bandwidth (per side). The pure-CPU baseline
  /// pays these eager-protocol bounce-buffer copies; GPU configurations use
  /// peer-to-peer RDMA (GPUDirect-style) and do not (§1).
  sim::Bandwidth copy_bandwidth = sim::Bandwidth::gibps(80);
  /// Software cost to build + post a two-sided message (full network stack).
  sim::Tick send_stack_cost = sim::ns(350);
  /// Software cost to post a receive.
  sim::Tick recv_stack_cost = sim::ns(150);
  /// Software cost to construct + register a one-sided put / triggered op
  /// ("partial network stack" of Table 1: packet build off the critical
  /// path).
  sim::Tick post_cost = sim::ns(250);
  /// Driver-side cost to enqueue a kernel to the GPU stream.
  sim::Tick kernel_enqueue_cost = sim::ns(200);
  /// Interval between polls when host code spins on a memory flag.
  sim::Tick poll_interval = sim::ns(60);
};

class Cpu {
 public:
  Cpu(sim::Simulator& sim, mem::Memory& memory, CpuConfig config)
      : sim_(&sim), mem_(&memory), config_(config), util_(config.cores) {}
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  const CpuConfig& config() const { return config_; }
  sim::Simulator& simulator() { return *sim_; }
  mem::Memory& memory() { return *mem_; }

  /// Awaiter of a timed host op (no coroutine frame; co_await it where it
  /// is called). It holds `units` cores in the ledger from the call until
  /// its delay ends — a t <= 0 op acquires and releases in one event — and
  /// then emits a traced phase's span, from the call's tick. The model
  /// itself has no core contention (phases just take time); the ledger is
  /// what distinguishes a single polling thread from an all-cores phase.
  class [[nodiscard]] Occupy : public sim::Delay {
   public:
    void await_resume() const;

   private:
    friend class Cpu;
    enum class Span : unsigned char { kNone, kCompute, kStagingCopy };
    Occupy(Cpu& cpu, int units, sim::Tick t, Span span = Span::kNone,
           double flops = 0, std::uint64_t bytes = 0);
    Cpu* cpu_;
    int units_;
    Span span_;
    sim::Tick begin_;
    double flops_;
    std::uint64_t bytes_;
  };

  /// Busy the host for `t` (single thread).
  Occupy compute(sim::Tick t) { return Occupy(*this, 1, t); }

  /// Single-threaded flop-bound phase.
  Occupy compute_flops_serial(double flops);

  /// OpenMP-style parallel phase: `flops` of arithmetic touching `bytes` of
  /// memory, spread across all cores; takes the max of the compute-bound
  /// and bandwidth-bound times (roofline).
  Occupy compute_parallel(double flops, std::uint64_t bytes);

  /// Spin until *addr >= value: one core reads the flag every
  /// poll_interval, starting at once (event-free, mem/spin_wait.hpp).
  mem::SpinWait wait_value_ge(mem::Addr addr, std::uint64_t value);

  /// Spin until one of `scan`'s words reaches its target: one core reads
  /// them all every poll_interval, the first read one interval in, as a
  /// compute(poll_interval)-then-scan loop would; yields the word's index
  /// (event-free, mem/spin_wait.hpp). Every word's first read must be a
  /// multiple of poll_interval.
  mem::MultiSpinWait::Awaiter wait_any(mem::MultiSpinWait& scan) {
    return scan.wait(config_.poll_interval, &util_);
  }

  /// Streaming time for `bytes` with the L3/DRAM blend: the first
  /// `l3_tier_bytes` are served at L3 speed, the remainder at `miss_bw`.
  /// Continuous in `bytes`, so scaling curves have no cliff at the tier.
  sim::Tick tiered_stream_time(std::uint64_t bytes,
                               const sim::Bandwidth& miss_bw) const;

  /// Time compute_parallel would take (for closed-form sanity checks).
  sim::Tick parallel_time(double flops, std::uint64_t bytes) const;

  /// Host staging copy (eager-protocol bounce buffer) of `bytes`; uses L3
  /// bandwidth when the buffer fits in L3.
  Occupy staging_copy(std::uint64_t bytes);
  sim::Tick staging_copy_time(std::uint64_t bytes) const;

  /// Core-occupancy ledger over `cores` units. Flag-poll spins count as
  /// busy (wait_value_ge charges one core from its first failed read to the
  /// wake, and one op per failed read, as a compute(poll_interval) loop
  /// would): burning a core to poll is exactly the CPU cost the paper's
  /// triggered strategies avoid, so it must show up in the utilization
  /// report.
  const obs::BusyTracker& util() const { return util_; }

  /// Attach a trace recorder; parallel-compute and staging-copy phases are
  /// emitted as spans onto `lane`. Flag-poll spins are deliberately not
  /// traced — one span per poll would drown the timeline.
  void set_trace(sim::TraceRecorder* trace, std::string lane) {
    trace_ = trace;
    trace_lane_ = std::move(lane);
  }

 private:
  sim::Simulator* sim_;
  mem::Memory* mem_;
  CpuConfig config_;
  obs::BusyTracker util_;
  sim::TraceRecorder* trace_ = nullptr;
  std::string trace_lane_;
};

}  // namespace gputn::cpu
