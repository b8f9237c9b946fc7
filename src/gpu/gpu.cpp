#include "gpu/gpu.hpp"

#include <algorithm>

#include <stdexcept>
#include <utility>

namespace gputn::gpu {

mem::Memory& WorkGroupCtx::mem() { return gpu_->memory(); }

sim::Delay WorkGroupCtx::compute(sim::Tick t) {
  return gpu_->simulator().delay(t);
}

sim::Delay WorkGroupCtx::compute_flops(double flops) {
  const auto& cfg = gpu_->config();
  double flops_per_ns = cfg.flops_per_cu_per_cycle * cfg.clock_ghz;
  return compute(sim::ns(flops / flops_per_ns));
}

sim::Delay WorkGroupCtx::compute_mem(std::uint64_t bytes) {
  const auto& cfg = gpu_->config();
  // Per-CU share of aggregate bandwidth; work-groups on different CUs
  // stream concurrently.
  double share = cfg.mem_bandwidth.bytes_per_second() / cfg.cu_count;
  return compute(sim::Bandwidth::bytes_per_sec(share).serialize(bytes));
}

sim::Delay WorkGroupCtx::barrier() {
  return compute(gpu_->config().barrier_latency);
}

sim::Delay WorkGroupCtx::diverged(int paths, sim::Tick per_path) {
  if (paths < 1) paths = 1;
  return compute(static_cast<sim::Tick>(paths) * per_path);
}

WorkGroupCtx::Fence WorkGroupCtx::fence_system() {
  return Fence{compute(gpu_->config().fence_system_latency), this};
}

WorkGroupCtx::Store WorkGroupCtx::store_system(mem::Addr addr,
                                               std::uint64_t value) {
  if (mem().is_mmio(addr) && dirty_) {
    // §4.2.6: triggering the NIC while buffer writes are still only
    // work-group-visible races the DMA read against the GPU caches.
    ++gpu_->hazards_;
  }
  return Store{compute(gpu_->config().store_system_latency), this, addr,
               value};
}

void WorkGroupCtx::Store::await_resume() const {
  mem::Memory& m = ctx->mem();
  if (m.is_mmio(addr)) {
    m.mmio_store(addr, value);
  } else {
    m.store<std::uint64_t>(addr, value);
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
      launch_model_{"fixed", config.launch_latency, 0},
      stream_(sim, sim::method<&Gpu::start_op>(this)),
      cus_(sim, config.cu_count * std::max(1, config.max_wgs_per_cu),
           sim::method<&Gpu::start_work_group>(this)),
      cu_util_(config.cu_count * std::max(1, config.max_wgs_per_cu)) {
  if (config.cu_count <= 0) throw std::invalid_argument("cu_count <= 0");
}

void Gpu::set_launch_model(LaunchModel model) {
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

void Gpu::start_op(StreamOp&& op) {
  op_ = std::move(op);
  if (auto* k = std::get_if<KernelOp>(&op_)) {
    k->record->launch_begin = sim_->now();
    // Commands visible to the hardware scheduler: this one plus anything
    // still queued behind it (Figure 1's batching effect).
    int visible = 1 + static_cast<int>(stream_.size());
    sim_->delay(launch_model_.launch_cost(visible), [this] { launched(); });
  } else if (std::holds_alternative<GdsPutOp>(op_)) {
    // The front-end scheduler rings a pre-posted doorbell on the NIC when
    // the stream reaches this entry (GDS model, §1/§5.1).
    sim_->delay(config_.gds_doorbell_latency, [this] {
      auto& p = std::get<GdsPutOp>(op_);
      p.nic->ring_doorbell(std::move(p.cmd));
      op_done();
    });
  } else {
    const auto& w = std::get<GdsWaitOp>(op_);
    gds_wait_.emplace(*sim_, *mem_, w.addr, w.value,
                      mem::PollGrid{0, config_.poll_interval});
    if (!gds_wait_->park(sim::method<&Gpu::op_done>(this))) op_done();
  }
}

void Gpu::op_done() {
  op_ = StreamOp{};
  stream_.finish();
}

void Gpu::launched() {
  auto& k = std::get<KernelOp>(op_);
  k.record->exec_begin = sim_->now();
  if (!k.desc.fn) {
    exec_end();
    return;
  }
  next_wg_ = 0;
  wgs_left_ = k.desc.num_wgs;
  dispatch_next();
}

void Gpu::dispatch_next() {
  sim_->delay(config_.wg_dispatch_latency, [this] {
    cu_util_.enqueue(sim_->now());
    cus_.request(next_wg_++);
    if (next_wg_ < std::get<KernelOp>(op_).desc.num_wgs) {
      dispatch_next();
    } else if (wgs_left_ == 0) {
      exec_end();  // the last work-group already ended
    } else {
      awaiting_wgs_ = true;
    }
  });
}

void Gpu::exec_end() {
  std::get<KernelOp>(op_).record->exec_end = sim_->now();
  sim_->delay(config_.teardown_latency, [this] { kernel_done(); });
}

void Gpu::kernel_done() {
  auto& k = std::get<KernelOp>(op_);
  KernelRecord& record = *k.record;
  record.done_time = sim_->now();
  if (trace_ != nullptr) {
    trace_->span(trace_lane_, k.desc.name + ":launch", "gpu",
                 record.launch_begin, record.exec_begin);
    trace_->span(trace_lane_, k.desc.name, "gpu", record.exec_begin,
                 record.exec_end);
    trace_->span(trace_lane_, k.desc.name + ":teardown", "gpu",
                 record.exec_end, record.done_time);
  }
  record.done.trigger();
  op_done();
}

void Gpu::start_work_group(int&& wg) {
  sim_->spawn(run_work_group(wg), std::get<KernelOp>(op_).desc.name);
}

sim::Task<> Gpu::run_work_group(int wg_id) {
  const KernelDesc& desc = std::get<KernelOp>(op_).desc;
  cu_util_.dequeue(sim_->now());
  cu_util_.acquire(sim_->now());
  WorkGroupCtx ctx(*this, wg_id, desc.num_wgs, desc.items_per_wg);
  co_await desc.fn(ctx);
  // Kernel end implies a full system-visibility point; writes left
  // unfenced at kernel end are made visible by teardown, not a hazard.
  cu_util_.release(sim_->now());
  cus_.release();
  if (--wgs_left_ == 0 && awaiting_wgs_) {
    // The front end waits for the last work-group: wake it in one event.
    awaiting_wgs_ = false;
    sim_->schedule_at(sim_->now(), [this] { exec_end(); });
  }
}

}  // namespace gputn::gpu
