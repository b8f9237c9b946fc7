// Figure 1: kernel launch latencies on three modern GPUs as a function of
// how many kernel commands are queued at the hardware scheduler at once.
//
// Reproduction: three vendor-anonymous launch-latency profiles drive the
// simulated GPU front-end; for each queue depth we enqueue that many empty
// kernels in one batch and report the mean per-kernel launch latency
// actually measured in simulation (not the closed-form model).
#include <cstdio>
#include <vector>

#include "gpu/gpu.hpp"
#include "mem/memory.hpp"
#include "sim/simulator.hpp"

using namespace gputn;

namespace {

double measure_mean_launch_us(const gpu::LaunchModel& profile, int queued) {
  sim::Simulator sim;
  mem::Memory memory(1 << 20);
  gpu::GpuConfig cfg;
  cfg.teardown_latency = 0;  // isolate launch costs, as the Figure 1 study
  gpu::Gpu g(sim, memory, cfg);
  g.set_launch_model(profile);
  std::vector<std::shared_ptr<gpu::KernelRecord>> recs;
  for (int i = 0; i < queued; ++i) {
    recs.push_back(g.enqueue_kernel(gpu::KernelDesc{"empty", 1, 64, nullptr}));
  }
  sim.run();
  double total_us = 0.0;
  for (const auto& r : recs) total_us += sim::to_us(r->exec_begin - r->launch_begin);
  sim.reap_processes();
  return total_us / queued;
}

}  // namespace

int main() {
  std::printf("Figure 1: kernel launch latency vs. queued kernel commands\n");
  std::printf("(mean per-kernel launch latency, us)\n\n");
  auto profiles = gpu::figure1_gpu_profiles();
  std::printf("%8s", "queued");
  for (const auto& p : profiles) std::printf("%10s", p.name.c_str());
  std::printf("\n");
  for (int q : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    std::printf("%8d", q);
    for (const auto& p : profiles) {
      std::printf("%10.2f", measure_mean_launch_us(p, q));
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper: 3-20 us depending on queue depth and hardware; even the\n"
      "best case takes 3-4 us, discouraging kernel-boundary networking\n"
      "for fine-grained communication.\n");
  return 0;
}
