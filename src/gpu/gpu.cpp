#include "gpu/gpu.hpp"

#include <algorithm>

#include <stdexcept>
#include <utility>

namespace gputn::gpu {

mem::Memory& WorkGroupCtx::mem() { return gpu_->memory(); }

sim::Task<> WorkGroupCtx::compute(sim::Tick t) {
  co_await gpu_->simulator().delay(t);
}

sim::Task<> WorkGroupCtx::compute_flops(double flops) {
  const auto& cfg = gpu_->config();
  double flops_per_ns = cfg.flops_per_cu_per_cycle * cfg.clock_ghz;
  co_await compute(sim::ns(flops / flops_per_ns));
}

sim::Task<> WorkGroupCtx::compute_mem(std::uint64_t bytes) {
  const auto& cfg = gpu_->config();
  // Per-CU share of aggregate bandwidth; work-groups on different CUs
  // stream concurrently.
  double share = cfg.mem_bandwidth.bytes_per_second() / cfg.cu_count;
  co_await compute(
      sim::Bandwidth::bytes_per_sec(share).serialize(bytes));
}

sim::Task<> WorkGroupCtx::barrier() {
  co_await compute(gpu_->config().barrier_latency);
}

sim::Task<> WorkGroupCtx::diverged(int paths, sim::Tick per_path) {
  if (paths < 1) paths = 1;
  co_await compute(static_cast<sim::Tick>(paths) * per_path);
}

sim::Task<> WorkGroupCtx::fence_system() {
  co_await compute(gpu_->config().fence_system_latency);
  dirty_ = false;
}

sim::Task<> WorkGroupCtx::store_system(mem::Addr addr, std::uint64_t value) {
  if (mem().is_mmio(addr) && dirty_) {
    // §4.2.6: triggering the NIC while buffer writes are still only
    // work-group-visible races the DMA read against the GPU caches.
    gpu_->note_hazard();
  }
  co_await compute(gpu_->config().store_system_latency);
  if (mem().is_mmio(addr)) {
    mem().mmio_store(addr, value);
  } else {
    mem().store<std::uint64_t>(addr, value);
  }
}

mem::SpinWait WorkGroupCtx::wait_value_ge(mem::Addr addr,
                                          std::uint64_t value) {
  const auto& cfg = gpu_->config();
  return mem::SpinWait(
      gpu_->simulator(), mem(), addr, value,
      {cfg.load_system_latency, cfg.load_system_latency + cfg.poll_interval});
}

Gpu::Gpu(sim::Simulator& sim, mem::Memory& memory, GpuConfig config)
    : sim_(&sim),
      mem_(&memory),
      config_(config),
      launch_model_(std::make_unique<FixedLaunchModel>(config.launch_latency)),
      stream_(sim),
      cus_(sim, config.cu_count * std::max(1, config.max_wgs_per_cu)),
      cu_util_(config.cu_count * std::max(1, config.max_wgs_per_cu)),
      log_("gpu", sim.now_ptr()) {
  if (config.cu_count <= 0) throw std::invalid_argument("cu_count <= 0");
  sim_->spawn(front_end_loop(), "gpu.front_end");
}

void Gpu::set_launch_model(std::unique_ptr<LaunchModel> model) {
  launch_model_ = std::move(model);
}

std::shared_ptr<KernelRecord> Gpu::enqueue_kernel(KernelDesc desc) {
  if (desc.num_wgs <= 0) throw std::invalid_argument("num_wgs <= 0");
  auto record = std::make_shared<KernelRecord>(*sim_);
  record->enqueue_time = sim_->now();
  stream_.push(KernelOp{std::move(desc), record});
  return record;
}

void Gpu::enqueue_gds_put(nic::Nic& nic, nic::Command cmd) {
  stream_.push(GdsPutOp{&nic, std::move(cmd)});
}

void Gpu::enqueue_gds_wait(mem::Addr addr, std::uint64_t value) {
  stream_.push(GdsWaitOp{addr, value});
}

void Gpu::note_hazard() {
  ++hazards_;
  log_.warn("memory-model hazard: trigger store with unfenced buffer writes");
}

sim::Task<> Gpu::front_end_loop() {
  for (;;) {
    StreamOp op = co_await stream_.pop();
    if (auto* k = std::get_if<KernelOp>(&op)) {
      co_await execute_kernel(std::move(*k));
    } else if (auto* p = std::get_if<GdsPutOp>(&op)) {
      // The front-end scheduler rings a pre-posted doorbell on the NIC
      // when the stream reaches this entry (GDS model, §1/§5.1).
      co_await sim_->delay(config_.gds_doorbell_latency);
      p->nic->ring_doorbell(std::move(p->cmd));
    } else if (auto* w = std::get_if<GdsWaitOp>(&op)) {
      co_await mem::SpinWait(*sim_, *mem_, w->addr, w->value,
                             {0, config_.poll_interval});
    }
  }
}

sim::Task<> Gpu::execute_kernel(KernelOp op) {
  auto& record = *op.record;
  record.launch_begin = sim_->now();
  // Commands visible to the hardware scheduler: this one plus anything
  // still queued behind it (Figure 1's batching effect).
  int visible = 1 + static_cast<int>(stream_.size());
  co_await sim_->delay(launch_model_->launch_cost(visible));
  record.exec_begin = sim_->now();

  if (op.desc.fn) {
    sim::Event all_done(*sim_);
    int remaining = op.desc.num_wgs;
    for (int wg = 0; wg < op.desc.num_wgs; ++wg) {
      co_await sim_->delay(config_.wg_dispatch_latency);
      sim_->spawn(run_work_group(op.desc, wg, &remaining, &all_done),
                  op.desc.name + ".wg" + std::to_string(wg));
    }
    co_await all_done.wait();
  }
  record.exec_end = sim_->now();
  co_await sim_->delay(config_.teardown_latency);
  record.done_time = sim_->now();
  if (trace_ != nullptr) {
    trace_->span(trace_lane_, op.desc.name + ":launch", "gpu",
                 record.launch_begin, record.exec_begin);
    trace_->span(trace_lane_, op.desc.name, "gpu", record.exec_begin,
                 record.exec_end);
    trace_->span(trace_lane_, op.desc.name + ":teardown", "gpu",
                 record.exec_end, record.done_time);
  }
  record.done.trigger();
}

sim::Task<> Gpu::run_work_group(const KernelDesc& desc, int wg_id,
                                int* remaining, sim::Event* all_done) {
  cu_util_.enqueue(sim_->now());
  co_await cus_.acquire();
  cu_util_.dequeue(sim_->now());
  cu_util_.acquire(sim_->now());
  WorkGroupCtx ctx(*this, wg_id, desc.num_wgs, desc.items_per_wg);
  co_await desc.fn(ctx);
  if (ctx.has_unfenced_writes()) {
    // Kernel end implies a full system-visibility point; writes left
    // unfenced at kernel end are made visible by teardown, not a hazard.
  }
  cu_util_.release(sim_->now());
  cus_.release();
  if (--*remaining == 0) all_done->trigger();
}

}  // namespace gputn::gpu
