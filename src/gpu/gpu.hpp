// GPU model: front-end command processor, compute units, work-group
// execution, and the device-side memory operations GPU-TN relies on.
//
// Kernels are written as C++ coroutines executed once per work-group (the
// paper triggers at work-item, work-group, and kernel granularity — a
// work-group coroutine can model all three since work-items within a group
// run effectively in lockstep and trigger stores are issued by the group
// leader or by modelled per-item loops; see §4.2).
//
// The front-end processes an in-order stream of operations, mirroring how
// GDS integrates network initiation into CUDA streams (§5.1): a stream entry
// is a kernel dispatch, a pre-posted network op whose doorbell the front-end
// rings when reached (GDS put), or a wait-on-flag (GDS wait). The front end
// and the CU slots are passive units (sim::Fifo and sim::Slots, DESIGN.md
// §9): the GPU runs no process of its own, and each work-group's process is
// spawned when the group gets a slot.
//
// Memory-model checking (§4.2.6): a work-group that stores to the trigger
// address while it has unfenced buffer writes outstanding is detected and
// counted — this is the correctness hazard the paper's release-fence
// discussion warns about.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "gpu/launch_model.hpp"
#include "mem/memory.hpp"
#include "mem/spin_wait.hpp"
#include "nic/nic.hpp"
#include "obs/busy.hpp"
#include "sim/trace.hpp"
#include "sim/sync.hpp"

namespace gputn::gpu {

struct GpuConfig {
  int cu_count = 24;                 // Table 2
  /// Resident work-groups per CU. Occupancy > 1 lets persistent kernels
  /// oversubscribe for latency hiding (polling work-groups do not consume
  /// compute); a kernel with more work-groups than cu_count *
  /// max_wgs_per_cu that synchronizes across work-groups will livelock —
  /// the real persistent-kernel constraint, surfaced by the model.
  int max_wgs_per_cu = 1;
  double clock_ghz = 1.0;            // Table 2
  double flops_per_cu_per_cycle = 128.0;  // 64 lanes x fma
  /// Aggregate GPU memory bandwidth for bandwidth-bound kernel phases.
  sim::Bandwidth mem_bandwidth = sim::Bandwidth::gibps(320);
  sim::Tick launch_latency = sim::us(1.5);    // §5.1 calibration
  sim::Tick teardown_latency = sim::us(1.5);  // §5.1 calibration
  sim::Tick wg_dispatch_latency = sim::ns(10);
  sim::Tick barrier_latency = sim::ns(30);
  /// Release fence to system scope (flush/bypass GPU caches, §4.2.6).
  sim::Tick fence_system_latency = sim::ns(60);
  /// System-scope atomic store (cache-bypassing; reaches MMIO or DRAM).
  sim::Tick store_system_latency = sim::ns(80);
  sim::Tick load_system_latency = sim::ns(120);
  /// Interval between polls when a kernel spins on a memory flag.
  sim::Tick poll_interval = sim::ns(100);
  /// Front-end doorbell ring for GDS stream network ops.
  sim::Tick gds_doorbell_latency = sim::ns(50);
};

class Gpu;

/// Per-work-group device execution context (the kernel API of Figure 7).
class WorkGroupCtx {
 public:
  WorkGroupCtx(Gpu& gpu, int wg_id, int num_wgs, int items_per_wg)
      : gpu_(&gpu), wg_id_(wg_id), num_wgs_(num_wgs),
        items_per_wg_(items_per_wg) {}

  int wg_id() const { return wg_id_; }
  int num_wgs() const { return num_wgs_; }
  int items_per_wg() const { return items_per_wg_; }
  /// Global id of this group's leader work-item.
  int leader_global_id() const { return wg_id_ * items_per_wg_; }

  Gpu& gpu() { return *gpu_; }
  mem::Memory& mem();

  // -- Timed device operations --------------------------------------------
  // Each returns an awaiter, not a coroutine, so an op allocates no frame;
  // co_await it where it is called.

  /// fence_system()'s awaiter: clears the hazard state when it ends.
  struct [[nodiscard]] Fence : sim::Delay {
    WorkGroupCtx* ctx;
    void await_resume() const noexcept { ctx->dirty_ = false; }
  };
  /// store_system()'s awaiter: performs the store when it ends.
  struct [[nodiscard]] Store : sim::Delay {
    WorkGroupCtx* ctx;
    mem::Addr addr;
    std::uint64_t value;
    void await_resume() const;
  };

  /// Occupy this work-group's compute unit for `t`.
  sim::Delay compute(sim::Tick t);
  /// Flop-bound phase executed by this work-group.
  sim::Delay compute_flops(double flops);
  /// Memory-bandwidth-bound phase touching `bytes` (per work-group share).
  sim::Delay compute_mem(std::uint64_t bytes);
  /// Work-group barrier (§4.2: leader triggers after the barrier).
  sim::Delay barrier();
  /// Divergent control flow: a wavefront taking `paths` distinct branch
  /// directions executes them serially under an execution mask (§2.1.1) —
  /// total time is paths * per_path. This is the §5.1.1 cost that makes
  /// serial packet construction (GNN) expensive on a GPU.
  sim::Delay diverged(int paths, sim::Tick per_path);
  /// Release fence to system scope: makes prior buffer writes visible to
  /// the NIC (§4.2.6). Clears the unfenced-writes hazard state.
  Fence fence_system();
  /// System-scope atomic store; routes to MMIO (trigger address) or DRAM
  /// when its latency has passed. Firing a trigger with unfenced buffer
  /// writes is counted as a memory-model hazard, at the call.
  Store store_system(mem::Addr addr, std::uint64_t value);
  /// Spin until *addr >= value: a system-scope acquire load
  /// (load_system_latency), then poll_interval, then the next load...
  /// (event-free, mem/spin_wait.hpp).
  mem::SpinWait wait_value_ge(mem::Addr addr, std::uint64_t value);

  // -- Functional buffer access (time accounted via compute_* phases) -----
  /// Device writes to global memory: tracked for fence-hazard detection.
  template <typename T>
  void store_data(mem::Addr addr, const T& v) {
    mem().store(addr, v);
    dirty_ = true;
  }
  template <typename T>
  void write_data(mem::Addr addr, std::span<const T> src) {
    mem().write(addr, src.data(), src.size_bytes());
    dirty_ = true;
  }
  template <typename T>
  T load_data(mem::Addr addr) {
    return mem().load<T>(addr);
  }
  /// Typed mutable view; mark_dirty() must accompany in-place mutation.
  template <typename T>
  std::span<T> view(mem::Addr addr, std::size_t count) {
    return mem().typed<T>(addr, count);
  }
  void mark_dirty() { dirty_ = true; }
  bool has_unfenced_writes() const { return dirty_; }

 private:
  friend class Gpu;
  Gpu* gpu_;
  int wg_id_;
  int num_wgs_;
  int items_per_wg_;
  bool dirty_ = false;
};

using KernelFn = std::function<sim::Task<>(WorkGroupCtx&)>;

struct KernelDesc {
  std::string name = "kernel";
  int num_wgs = 1;
  int items_per_wg = 64;
  KernelFn fn;  ///< may be empty: an empty kernel (Figure 1 study)
};

/// Timestamps and completion event for one dispatched kernel.
struct KernelRecord {
  explicit KernelRecord(sim::Simulator& sim) : done(sim) {}
  sim::Event done;
  sim::Tick enqueue_time = -1;
  sim::Tick launch_begin = -1;
  sim::Tick exec_begin = -1;
  sim::Tick exec_end = -1;
  sim::Tick done_time = -1;
};

class Gpu {
 public:
  Gpu(sim::Simulator& sim, mem::Memory& memory, GpuConfig config);
  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  const GpuConfig& config() const { return config_; }
  sim::Simulator& simulator() { return *sim_; }
  mem::Memory& memory() { return *mem_; }

  /// Replace the launch model (default: {"fixed", launch_latency, 0}).
  void set_launch_model(LaunchModel model);

  /// Enqueue a kernel on the (single, in-order) stream.
  std::shared_ptr<KernelRecord> enqueue_kernel(KernelDesc desc);
  /// Enqueue a GDS-style pre-posted network op: the front-end rings the
  /// NIC doorbell when the stream reaches this entry (i.e. after the
  /// preceding kernel's completion).
  void enqueue_gds_put(nic::Nic& nic, nic::Command cmd);
  /// Enqueue a GDS-style wait: the front-end blocks the stream until the
  /// flag at `addr` is >= `value`.
  void enqueue_gds_wait(mem::Addr addr, std::uint64_t value);

  std::uint64_t memory_model_hazards() const { return hazards_; }

  /// Work-group slot ledger over cu_count * max_wgs_per_cu units: a slot is
  /// busy while a resident work-group runs (polling groups included — a
  /// parked persistent work-group still holds its slot), queued while a
  /// dispatched group waits for a free slot.
  const obs::BusyTracker& cu_util() const { return cu_util_; }

  /// Attach a trace recorder; kernel launch/exec/teardown spans are
  /// emitted onto `lane`.
  void set_trace(sim::TraceRecorder* trace, std::string lane) {
    trace_ = trace;
    trace_lane_ = std::move(lane);
  }

 private:
  friend class WorkGroupCtx;

  struct KernelOp {
    KernelDesc desc;
    std::shared_ptr<KernelRecord> record;
  };
  struct GdsPutOp {
    nic::Nic* nic;
    nic::Command cmd;
  };
  struct GdsWaitOp {
    mem::Addr addr;
    std::uint64_t value;
  };
  using StreamOp = std::variant<KernelOp, GdsPutOp, GdsWaitOp>;

  /// The front end takes the stream's head op.
  void start_op(StreamOp&& op);
  /// The op in service is done; the front end moves on.
  void op_done();
  // A kernel: launch delay, one work-group dispatch per
  // wg_dispatch_latency, the wait for the last work-group, teardown.
  void launched();
  void dispatch_next();
  void exec_end();
  void kernel_done();
  /// Work-group `wg` got a CU slot: spawn its process.
  void start_work_group(int&& wg);
  sim::Task<> run_work_group(int wg_id);

  sim::Simulator* sim_;
  mem::Memory* mem_;
  GpuConfig config_;
  LaunchModel launch_model_;
  sim::Fifo<StreamOp> stream_;
  /// The op in service. A kernel's desc stays here until its last
  /// work-group ends: work-group frames reference its closure.
  StreamOp op_;
  int next_wg_ = 0;          ///< the next work-group to dispatch
  int wgs_left_ = 0;         ///< work-groups of the kernel not yet ended
  bool awaiting_wgs_ = false;  ///< the front end waits for the last one
  std::optional<mem::SpinWait> gds_wait_;
  sim::Slots<int> cus_;
  obs::BusyTracker cu_util_;
  std::uint64_t hazards_ = 0;
  sim::TraceRecorder* trace_ = nullptr;
  std::string trace_lane_;
};

}  // namespace gputn::gpu
