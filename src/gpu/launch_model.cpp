#include "gpu/launch_model.hpp"

namespace gputn::gpu {

std::vector<LaunchModel> figure1_gpu_profiles() {
  return {
      // GPU 1: discrete flagship — very high single-kernel cost, amortizes
      // well.
      {"GPU 1", sim::us(4.0), sim::us(16.0)},
      // GPU 2: discrete midrange.
      {"GPU 2", sim::us(3.6), sim::us(8.0)},
      // GPU 3: integrated APU — lowest launch overhead, least amortization.
      {"GPU 3", sim::us(3.2), sim::us(4.0)},
  };
}

}  // namespace gputn::gpu
