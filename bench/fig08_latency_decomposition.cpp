// Figure 8: latency decomposition of the one-cache-line microbenchmark
// under HDN, GDS, and GPU-TN (§5.2).
//
// Paper calibration targets: GPU-TN target completion ~2.71 us, GDS
// ~3.76 us, HDN ~4.21 us; ~35% uplift over HDN and ~25% over GDS; and the
// GPU-TN target receives the data before the initiator's kernel completes.
#include <cstdio>

#include "workloads/microbench.hpp"

using namespace gputn;
using namespace gputn::workloads;

int main() {
  std::printf("Figure 8: microbenchmark latency decomposition (us)\n\n");

  MicrobenchResult results[3] = {
      run_microbench(Strategy::kGpuTn),
      run_microbench(Strategy::kGds),
      run_microbench(Strategy::kHdn),
  };

  bool all_correct = true;
  for (const auto& r : results) {
    all_correct = all_correct && r.correct;
    std::printf("%-7s initiator:", strategy_name(r.strategy));
    for (const auto& ph : r.initiator_phases) {
      std::printf("  %s=%.2f", ph.label.c_str(), ph.us());
    }
    std::printf("  (done %.2f)\n", sim::to_us(r.initiator_completion));
    std::printf("%-7s target:    data received at %.2f%s\n", "",
                sim::to_us(r.target_completion),
                r.correct ? "" : "  [PAYLOAD MISMATCH!]");
  }

  double tn = sim::to_us(results[0].end_to_end());
  double gds = sim::to_us(results[1].end_to_end());
  double hdn = sim::to_us(results[2].end_to_end());
  std::printf("\nEnd-to-end (target completion): GPU-TN %.2f | GDS %.2f | HDN %.2f\n",
              tn, gds, hdn);
  std::printf("GPU-TN uplift: %.1f%% vs HDN (paper ~35%%), %.1f%% vs GDS (paper ~25%%)\n",
              100.0 * (1.0 - tn / hdn), 100.0 * (1.0 - tn / gds));
  std::printf("GPU-TN target completes %s the initiator kernel finishes (paper: before)\n",
              results[0].target_completion < results[0].initiator_completion
                  ? "BEFORE"
                  : "AFTER");
  return all_correct ? 0 : 1;
}
