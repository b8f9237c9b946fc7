// Causal what-if profiler: counterfactual hardware sensitivity analysis
// (`gputn whatif`).
//
// The observability stack so far *describes* where time went — PR 5's
// util.* busy ledgers, PR 7's blame taxonomy — but busy != bottleneck and
// blame shares don't compose under queueing. A deterministic simulator
// makes Coz-style causal profiling exact: re-run the identical workload
// under virtually-scaled hardware and measure the real end-to-end delta.
//
// Model: a registry of named hardware knobs (link bandwidth/latency,
// switch latency/credits, NIC command rate, DMA bandwidth, host post cost,
// trigger-table latency, doorbell latency/batch, GPU CU count), each
// mapping a *speed* factor s onto cluster::SystemConfig / NicConfig /
// FabricConfig (s > 1 = faster hardware, s = inf = the resource is free).
// The profiler runs, per strategy,
//
//   * a baseline with a private flight recorder (blame source),
//   * a knob x {0.5x, 2x, inf} counterfactual matrix,
//   * a virtual-speedup curve for the top-ranked knob,
//
// through exp::Plan / exp::Runner — parallel and bit-identical at any
// --jobs value — and ranks knobs by measured end-to-end improvement.
//
// The headline analysis is the cross-check: for every knob the measured
// improvement at 2x speed is compared against two predictions derived from
// the baseline run alone —
//
//   * blame model: the knob's attributed critical-path picoseconds (its
//     blame categories plus its part of the ideal wire model,
//     net::ideal_wire, which the blame split itself uses), scaled by
//     (1 - 1/s);
//   * busy fractions (PR 5): the busiest matching util.* resource's
//     effective busy time, scaled the same way;
//
// and divergences are flagged: "queueing" when the measured win beats the
// linear blame prediction (contention nonlinearity), "overlapped" when
// blamed time turns out to be off the critical path (hidden parallelism),
// "unattributed" when the blame model is blind to the knob entirely (e.g.
// host posting cost between ops). On an idle star fabric the wire knobs'
// measured deltas match the blame prediction *exactly* (integer
// picoseconds) — tests/obs/whatif_test.cpp pins that.
//
// All derived artifacts (render, JSON, diff) are deterministic; the JSON
// report supports a --baseline diff gate like `gputn report`.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "workloads/options.hpp"
#include "workloads/registry.hpp"
#include "workloads/strategy.hpp"

namespace gputn::obs {

/// Sentinel speed factor: the resource becomes free / unlimited.
inline constexpr double kInfiniteSpeed =
    std::numeric_limits<double>::infinity();

/// Which part of the ideal wire model (net::ideal_wire) a knob scales; used
/// to split per-leg wire blame between the wire knobs.
enum class WirePart { kNone, kSerialization, kLinkLatency, kSwitchLatency };

/// One named hardware knob.
struct Knob {
  std::string name;
  std::string kind;  ///< "cost" (latency-like) or "capacity" (rate-like)
  std::string description;
  /// Scale the resource's speed by `s` on a config copy; may also rewrite
  /// workload parameters (doorbell batch). Returns false when this scale
  /// has no effect (credits already unlimited) or is unsafe (gpu_cus
  /// downscale can livelock persistent kernels) — that scale-point is
  /// skipped; the knob is inert only when every scale is skipped.
  std::function<bool(cluster::SystemConfig&, workloads::WorkloadParams&,
                     double s)>
      apply;
  /// Blame categories (critical.hpp taxonomy) attributed to this knob.
  std::vector<std::string> blame_categories;
  WirePart wire_part = WirePart::kNone;
  /// util.* resource-name substring whose busy fraction predicts this knob
  /// ("" = no busy-ledger counterpart, e.g. pure latencies).
  std::string busy_pattern;
  /// Restrict to these workloads ("" = all): knobs that rewrite a
  /// workload-specific parameter are inert elsewhere.
  std::vector<std::string> only_workloads;
};

/// The built-in knob registry, fixed order (= report order).
const std::vector<Knob>& knob_registry();

struct WhatifOptions {
  std::vector<workloads::Strategy> strategies = {
      workloads::Strategy::kCpu, workloads::Strategy::kGpuTn};
  /// Speed factors for the counterfactual matrix (kInfiniteSpeed = free).
  std::vector<double> scales = {0.5, 2.0, kInfiniteSpeed};
  /// Knob names to profile; empty = the full registry.
  std::vector<std::string> knobs;
  /// Divergence tolerance for the measured-vs-predicted cross-check, as a
  /// percentage of the baseline total time.
  double tolerance_pct = 2.0;
  /// Baseline-diff gate threshold (like `gputn report`).
  double threshold_pct = 5.0;
  /// Knobs rendered per strategy (0 = all). The JSON always carries all.
  int top = 0;
  /// Run the virtual-speedup curve for each strategy's top knob.
  bool curve = true;
  /// Worker threads for the counterfactual matrix (exp::Runner semantics;
  /// 0 = hardware concurrency). Output is bit-identical for every value.
  int jobs = 1;
};

/// One counterfactual run.
struct WhatifPoint {
  double scale = 1.0;  ///< speed factor (kInfiniteSpeed = free)
  bool ok = false;
  std::string error;  ///< set when the run failed (watchdog, livelock, ...)
  std::int64_t total_ps = 0;
};

/// One knob's sensitivity under one strategy.
struct KnobResult {
  std::string name;
  std::string kind;
  bool inert = false;
  std::vector<WhatifPoint> points;  ///< matrix points, opt.scales order
  /// Measured end-to-end improvement (baseline - counterfactual, ps).
  std::int64_t improve2x_ps = 0;  ///< at speed 2x (0 when absent/failed)
  std::int64_t ideal_ps = 0;      ///< at speed inf (0 when absent/failed)
  std::int64_t best_improve_ps = 0;  ///< max over all speeds > 1
  /// Swing of the matrix: (t(slowest) - t(fastest)) / baseline, percent.
  double swing_pct = 0.0;
  /// Predictions at baseline (attributed picoseconds; scale by 1 - 1/s).
  std::int64_t predicted_blame_ps = 0;
  std::int64_t predicted_busy_ps = 0;
  /// Cross-check at the mildest accelerating scale (2x when present):
  /// measured vs blame-predicted improvement and the verdict —
  /// match | queueing | overlapped | unattributed | inert | n/a.
  std::int64_t measured_ps = 0;
  std::int64_t predicted_ps = 0;
  std::string verdict = "n/a";
};

/// One strategy's full sensitivity analysis.
struct StrategyReport {
  std::string strategy;
  bool baseline_ok = false;
  std::string baseline_error;
  std::int64_t baseline_ps = 0;
  std::uint64_t ops_offered = 0;
  std::uint64_t ops_recorded = 0;
  std::vector<KnobResult> knobs;     ///< registry order
  std::vector<std::string> ranking;  ///< knob names, biggest causal win first
  int divergences = 0;  ///< knobs whose verdict is not match/inert/n-a
  std::string curve_knob;          ///< top knob the curve ran on ("" = none)
  std::vector<WhatifPoint> curve;  ///< extra speeds {1.25, 1.5, 4, 8}
};

struct WhatifReport {
  std::string workload;
  double tolerance_pct = 2.0;
  std::vector<StrategyReport> strategies;
};

/// Run the full profile. Throws std::invalid_argument on unknown knob or
/// workload names or a "strategy" workload parameter (the profiler drives
/// strategies itself) — all before any simulation starts; individual
/// counterfactual runs that fail are isolated per point (ok = false), like
/// exp::Runner. Every knob scales a copy of `sys`, so a --credits choice
/// in `sys.fabric` is the switch_credits knob's baseline.
WhatifReport run_whatif(const workloads::Registry& reg,
                        const std::string& workload,
                        const workloads::WorkloadParams& params,
                        const workloads::RunOptions& base_opts,
                        const cluster::SystemConfig& sys,
                        const WhatifOptions& opt);

/// Human-readable tables (per-strategy ranking + cross-check verdicts).
std::string render_whatif(const WhatifReport& rep, const WhatifOptions& opt);

/// Deterministic JSON: bit-identical across --jobs values and repeat runs.
std::string whatif_json(const WhatifReport& rep);

/// Parse a whatif JSON report (for --baseline). Unknown keys are ignored;
/// malformed input throws std::runtime_error.
WhatifReport parse_whatif(const std::string& json_text,
                          const std::string& source);

struct WhatifDiff {
  std::string text;
  /// Gated regressions: top-knob identity changes, baseline/improvement
  /// shifts past the threshold. A self-diff is always 0.
  int regressions = 0;
};

/// Diff `cur` against `base`: strategies matched by name, knobs by name.
WhatifDiff diff_whatif(const WhatifReport& cur, const WhatifReport& base,
                       double threshold_pct);

}  // namespace gputn::obs
