// Shared workload run options and result base (unified Workload API).
//
// Every workload used to re-declare the same plumbing — strategy, trace
// recorder, node count on the config side; strategy, node count, total time,
// correctness flag and captured counters on the result side — and every
// bench/CLI call site re-implemented the same printing and stats-export
// logic. `RunOptions`/`ResultBase` hoist those fields into one place:
// workload configs and results inherit them (so existing `cfg.strategy`,
// `res.total_time`, `res.net_stats` call sites are untouched) and the CLI
// drives a single `report()`/`stats_json()` path for every workload. The
// hardware, fabric selection included, is the cluster::SystemConfig each
// runner takes beside its config; RunOptions holds none of it. Every runner
// attaches its observers through attach_observers(), and those whose ranks
// all finish run them through one shell, run_ranks().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"
#include "sim/units.hpp"
#include "workloads/strategy.hpp"

namespace gputn::obs {
class FlightRecorder;
class TimeSeries;
}  // namespace gputn::obs

namespace gputn::cluster {
class Cluster;
}  // namespace gputn::cluster

namespace gputn::sim {
class Simulator;
}  // namespace gputn::sim

namespace gputn::workloads {

/// Options every workload runner understands. Workload configs inherit this
/// and add their own knobs; their default constructors set the
/// workload-appropriate node count (Jacobi's 2x2 decomposition fixes 4, the
/// collectives default to 8, the microbench pairs 2).
struct RunOptions {
  Strategy strategy = Strategy::kGpuTn;
  /// Cluster size. 0 means "workload default" — the generic CLI path leaves
  /// it 0 unless --nodes was given, and each runner then keeps its config's
  /// own default.
  int nodes = 0;
  /// When non-null, the run records a Chrome trace (Cluster::enable_tracing
  /// lanes + message flow events) into this recorder. Tracing is pure
  /// observation: simulated time and all counters are bit-identical to an
  /// untraced run. Must be a recorder private to this run when runs execute
  /// in parallel (exp::Runner) — TraceRecorder is not synchronized.
  sim::TraceRecorder* trace = nullptr;
  /// When non-null, the run attaches the cluster's standard probes to this
  /// sampler (Cluster::attach_timeseries) and samples them at its interval.
  /// Sampling is pure observation like tracing: results, counters, and
  /// timestamps are bit-identical to an unsampled run (the zero-drift test
  /// enforces this). Same parallel-runner caveat as `trace`.
  obs::TimeSeries* timeseries = nullptr;
  /// When non-null, the run attaches this per-op flight recorder to every
  /// NIC (Cluster::attach_flight): each delivered message's stage stamps
  /// are offered to it for `gputn analyze`. Pure observation with the same
  /// bit-identical guarantee and parallel-runner caveat as `trace` —
  /// except that the CLI does allow it under --replicas, with one private
  /// recorder per point merged in plan order.
  obs::FlightRecorder* flight = nullptr;
  /// Suppress the per-run stdout report. exp::Plan forces this on for
  /// points executed by the parallel runner, whose workers must not
  /// interleave prints; the driver reports from the merged results instead.
  bool quiet = false;
};

/// Which multi-run / observer flags a command line activated. The pairwise
/// accept/reject rules between them live in one table that both the driver
/// and `gputn config` read.
struct ActiveFlags {
  bool replicas = false;    ///< --replicas > 1
  bool trace = false;       ///< --trace FILE
  bool timeseries = false;  ///< --timeseries FILE
  bool flight = false;      ///< --flight FILE
};

/// First pairwise conflict between the active flags, as a ready-to-print
/// message naming both flags and the reason; empty when the combination is
/// allowed. Deterministic: rules are checked in a fixed order.
std::string flag_conflict(const ActiveFlags& f);

/// The full pairwise compatibility matrix, rendered for `gputn config` and
/// the docs. Covers every {--replicas, --trace, --timeseries, --flight}
/// pair with the reason a pair is rejected or allowed.
std::string flag_matrix();

/// Attaches the observers `opts` names (trace, timeseries, flight) to
/// `cluster`. A runner calls it once its cluster and inputs are built and
/// before the first event: the timeseries takes its first row here, which
/// perfbench reads as the end of setup.
void attach_observers(cluster::Cluster& cluster, const RunOptions& opts);

/// Spawns the one process that runs `ranks` as its children (sim::all) and
/// sets `done` to the tick the last of them finished. `done` must outlive
/// the process.
void spawn_ranks(sim::Simulator& sim, std::vector<sim::Task<>> ranks,
                 sim::Tick& done);

/// The run shell of microbench, allreduce, jacobi and broadcast: attaches
/// the observers, spawns the ranks (spawn_ranks), runs the simulation up to
/// 10 s of simulated time and flushes the flight recorder. Returns the tick
/// the last rank finished. The limit is the watchdog: a protocol bug that
/// livelocks would otherwise run forever (a spin-wait whose flag never
/// arrives just empties the queue), so a rank unfinished by then throws
/// "<workload>: deadlocked (...)". An exception that leaves a rank leaves
/// this call unchanged.
sim::Tick run_ranks(cluster::Cluster& cluster, const RunOptions& opts,
                    std::vector<sim::Task<>> ranks,
                    const std::string& workload);

/// Result fields shared by every workload, plus the single report/export
/// path. Workload results inherit this; the Registry returns it by value
/// (sliced), which keeps exactly the generic fields a driver needs.
struct ResultBase {
  Strategy strategy = Strategy::kGpuTn;
  int nodes = 0;
  std::string label;   ///< workload name, e.g. "jacobi"
  /// How the run was driven, for report(): usually the strategy name;
  /// broadcast puts its drive name here. Empty = use strategy_name().
  std::string mode;
  /// Human-readable parameter summary for report(), e.g. "256x256 x10 iters".
  std::string detail;
  sim::Tick total_time = 0;
  /// End-to-end verification outcome (numerics / payload / data match).
  bool correct = false;
  /// net.* / fault.* / rel.* / lat.* counters and histograms captured
  /// before teardown.
  sim::StatRegistry net_stats;

  /// Average time per operation, safe at ops == 0 (returns 0 instead of the
  /// division UB the per-workload copies used to have).
  sim::Tick per_op(std::int64_t ops) const {
    return ops > 0 ? total_time / ops : 0;
  }

  /// Deterministic JSON of the captured counters/histograms.
  std::string stats_json() const;

  /// One-line human summary (label, mode, detail, total time, verification)
  /// plus a fault/recovery line when the run saw injected faults.
  void report() const;
};

}  // namespace gputn::workloads
