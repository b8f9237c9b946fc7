#include "cpu/cpu.hpp"

#include <algorithm>

namespace gputn::cpu {

sim::Task<> Cpu::compute_flops_serial(double flops) {
  double flops_per_ns = config_.flops_per_core_per_cycle * config_.clock_ghz;
  co_await compute(sim::ns(flops / flops_per_ns));
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

sim::Task<> Cpu::staging_copy(std::uint64_t bytes) {
  sim::Tick begin = sim_->now();
  co_await compute(staging_copy_time(bytes));
  if (trace_ != nullptr) {
    trace_->span(trace_lane_, "staging_copy", "cpu", begin, sim_->now(),
                 "{\"bytes\":" + std::to_string(bytes) + "}");
  }
}

sim::Task<> Cpu::compute_parallel(double flops, std::uint64_t bytes) {
  sim::Tick begin = sim_->now();
  co_await occupy(config_.cores, parallel_time(flops, bytes));
  if (trace_ != nullptr) {
    trace_->span(trace_lane_, "compute", "cpu", begin, sim_->now(),
                 "{\"flops\":" + std::to_string(flops) +
                     ",\"bytes\":" + std::to_string(bytes) + "}");
  }
}

mem::SpinWait Cpu::wait_value_ge(mem::Addr addr, std::uint64_t value) {
  return mem::SpinWait(*sim_, *mem_, addr, value, {0, config_.poll_interval},
                       &util_);
}

}  // namespace gputn::cpu
