// Latency microbenchmark (§5.2, Figure 8): a kernel on the initiator copies
// one cache line and sends it to the target; we decompose where the time
// goes for HDN, GDS, and GPU-TN, and record when the target observes the
// data relative to the initiator's kernel lifecycle.
#pragma once

#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "workloads/options.hpp"
#include "workloads/strategy.hpp"

namespace gputn::workloads {

struct PhaseSpan {
  std::string label;
  sim::Tick begin = 0;
  sim::Tick end = 0;
  double us() const { return sim::to_us(end - begin); }
};

/// The microbenchmark always pairs two nodes (initiator + target); of
/// RunOptions it reads the strategy and the observers.
struct MicrobenchConfig : RunOptions {
  MicrobenchConfig() { nodes = 2; }
};

/// ResultBase::total_time is the §5.2 end-to-end metric (target
/// completion); ResultBase::correct is the payload verification.
struct MicrobenchResult : ResultBase {
  std::vector<PhaseSpan> initiator_phases;
  /// When the target observed the payload (its completion flag / recv).
  sim::Tick target_completion = 0;
  /// When the initiator finished everything (kernel teardown + sends).
  sim::Tick initiator_completion = 0;
  /// End-to-end metric used for the §5.2 uplift claims.
  sim::Tick end_to_end() const { return target_completion; }
};

/// Run the one-cache-line microbenchmark on a fresh 2-node cluster, through
/// the run shell (run_ranks): the target, GHN's helper thread and the
/// initiator are its ranks, started in that order. cfg's observers record
/// the run without perturbing it.
MicrobenchResult run_microbench(const MicrobenchConfig& cfg,
                                const cluster::SystemConfig& config);

/// Shorthands for benches that sweep strategies.
MicrobenchResult run_microbench(Strategy strategy,
                                const cluster::SystemConfig& config);
MicrobenchResult run_microbench(Strategy strategy);

}  // namespace gputn::workloads
