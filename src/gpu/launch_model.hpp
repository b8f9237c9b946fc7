// Kernel launch-latency models (Figure 1 and §5.1 calibration).
//
// The paper motivates GPU-TN with measured kernel launch latencies on three
// (vendor-anonymous) GPUs: per-kernel launch cost falls as more kernel
// commands are queued at the front-end scheduler at once (driver/doorbell
// costs amortize), but never below 3-4 µs. The main experiments calibrate to
// the optimistic end: a flat 1.5 µs launch + 1.5 µs teardown (§5.1).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "sim/units.hpp"

namespace gputn::gpu {

/// Queue-depth-amortized launch cost: cost(q) = floor + amortized / q.
/// Reproduces the Figure 1 curves: expensive for lone kernels, approaching
/// the hardware floor when many commands are batched. With amortized = 0
/// the cost is flat (the §5.1 calibration: {"fixed", 1.5 µs, 0}).
struct LaunchModel {
  std::string name;
  sim::Tick floor = 0;
  sim::Tick amortized = 0;

  /// Launch cost for the next kernel given the number of kernel commands
  /// currently visible to the hardware scheduler (>= 1).
  sim::Tick launch_cost(int commands_visible) const {
    return floor + amortized / std::max(commands_visible, 1);
  }
};

/// The three hardware profiles of Figure 1 (product names omitted in the
/// paper to avoid cross-vendor comparison; calibrated to the described
/// 3-20 µs envelope with a 3-4 µs best case).
std::vector<LaunchModel> figure1_gpu_profiles();

}  // namespace gputn::gpu
