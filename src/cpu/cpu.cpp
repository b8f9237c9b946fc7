#include "cpu/cpu.hpp"

#include <algorithm>

namespace gputn::cpu {

Cpu::Occupy::Occupy(Cpu& cpu, int units, sim::Tick t, Span span,
                    double flops, std::uint64_t bytes)
    : sim::Delay{cpu.sim_, t},
      cpu_(&cpu),
      units_(units),
      span_(span),
      begin_(cpu.sim_->now()),
      flops_(flops),
      bytes_(bytes) {
  for (int i = 0; i < units; ++i) cpu.util_.acquire(begin_);
}

void Cpu::Occupy::await_resume() const {
  sim::Tick now = cpu_->sim_->now();
  for (int i = 0; i < units_; ++i) cpu_->util_.release(now);
  sim::TraceRecorder* trace = cpu_->trace_;
  if (trace == nullptr) return;
  switch (span_) {
    case Span::kNone:
      break;
    case Span::kCompute:
      trace->span(cpu_->trace_lane_, "compute", "cpu", begin_, now,
                  "{\"flops\":" + std::to_string(flops_) +
                      ",\"bytes\":" + std::to_string(bytes_) + "}");
      break;
    case Span::kStagingCopy:
      trace->span(cpu_->trace_lane_, "staging_copy", "cpu", begin_, now,
                  "{\"bytes\":" + std::to_string(bytes_) + "}");
      break;
  }
}

Cpu::Occupy Cpu::compute_flops_serial(double flops) {
  double flops_per_ns = config_.flops_per_core_per_cycle * config_.clock_ghz;
  return compute(sim::ns(flops / flops_per_ns));
}

sim::Tick Cpu::tiered_stream_time(std::uint64_t bytes,
                                  const sim::Bandwidth& miss_bw) const {
  std::uint64_t hit = std::min(bytes, config_.l3_tier_bytes);
  std::uint64_t miss = bytes - hit;
  return config_.l3_bandwidth.serialize(hit) + miss_bw.serialize(miss);
}

sim::Tick Cpu::parallel_time(double flops, std::uint64_t bytes) const {
  double flops_per_ns = config_.flops_per_core_per_cycle * config_.clock_ghz *
                        config_.cores * config_.parallel_efficiency;
  sim::Tick compute_bound = sim::ns(flops / flops_per_ns);
  sim::Tick memory_bound = tiered_stream_time(bytes, config_.mem_bandwidth);
  return std::max(compute_bound, memory_bound);
}

sim::Tick Cpu::staging_copy_time(std::uint64_t bytes) const {
  return tiered_stream_time(bytes, config_.copy_bandwidth);
}

Cpu::Occupy Cpu::staging_copy(std::uint64_t bytes) {
  return Occupy(*this, 1, staging_copy_time(bytes), Occupy::Span::kStagingCopy,
                0, bytes);
}

Cpu::Occupy Cpu::compute_parallel(double flops, std::uint64_t bytes) {
  return Occupy(*this, config_.cores, parallel_time(flops, bytes),
                Occupy::Span::kCompute, flops, bytes);
}

mem::SpinWait Cpu::wait_value_ge(mem::Addr addr, std::uint64_t value) {
  return mem::SpinWait(*sim_, *mem_, addr, value, {0, config_.poll_interval},
                       &util_);
}

}  // namespace gputn::cpu
