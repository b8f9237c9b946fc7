// Critical-path blame attribution over flight-recorder dumps
// (`gputn analyze`).
//
// Reads the JSON obs::FlightRecorder writes — a single run's dump, or the
// merged [{"id", "flight"}] array a --replicas run produces — reconstructs
// each recorded op's stage chain, and attributes every picosecond of its
// latency to exactly one blame category:
//
//   trigger_wait  GPU trigger store -> command visible to the NIC
//   qp_batch      posted to a software queue -> its batch doorbell rung
//   doorbell      doorbell ring -> command visible to the NIC
//   cmd_queue     in the NIC command FIFO (TX engine backlog)
//   throttle      token-bucket admission stall (rate limiting)
//   tx_proc       command fetch + TX DMA until first wire hand-off
//   retransmit    first wire hand-off -> the accepted copy's hand-off
//   wire          ideal (uncongested) serialization + propagation
//   switch_queue  measured wire time beyond ideal (fabric congestion)
//   deposit       last packet received -> payload deposited (RX DMA)
//   server_proc   request deposited -> response issued (round trips only)
//
// The stage chain is contiguous, so the categories sum exactly to the op's
// end-to-end latency (stamps that did not occur contribute zero). `wire` is
// net::ideal_wire (net/wire.hpp) evaluated on the wire parameters embedded
// in the dump, the same function the simulator's fabric is checked
// against; the remainder of measured wire time is switch_queue. One list
// of (category, from-stamp, to-stamp) segments feeds both the blame tables
// and the exemplar trace. Ops are grouped by path — "put" (a paired
// request/response put round trip), "get" (get request/reply), "oneway"
// (everything else) — which is what separates the CPU proxy's put-path
// blame (server_proc / cmd_queue heavy) from GPU-TN's.
//
// All functions are pure (string -> struct -> string) and deterministic, so
// analyzer output over the same dump is byte-identical regardless of how
// many worker threads produced the dump.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "obs/flight.hpp"
#include "sim/stats.hpp"

namespace gputn::obs {

struct AnalyzeOptions {
  /// Diff: allowed relative growth on gated metrics (category p99/p999 and
  /// path-latency p999) before the diff counts a regression.
  double threshold_pct = 10.0;
  /// Show only the N heaviest categories per path (0 = all).
  int top = 0;
};

/// One blame category's aggregate over one path's ops.
struct CategoryRow {
  std::string category;
  std::uint64_t count = 0;     ///< ops with a nonzero contribution
  std::uint64_t total_ps = 0;  ///< summed over all of the path's ops
  /// Of the path's total blamed time.
  double share_pct = 0.0;
  /// Quantiles (ns) over the nonzero contributions.
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double max_ns = 0.0;
};

/// One path's ("put" / "get" / "oneway") blame table.
struct PathTable {
  std::string path;
  std::uint64_t ops = 0;
  sim::Histogram latency;  ///< op end-to-end latency, ns
  std::vector<CategoryRow> rows;  ///< ranked by total_ps desc, name tiebreak
};

/// A per-op blame breakdown (category -> picoseconds); used by tests, the
/// tail-exemplar list and whatif's blame predictions.
std::map<std::string, std::int64_t> blame_op(const OpRecord& op,
                                             const net::WireParams& wire);

/// One run's (one dump's) analysis.
struct AnalyzedRun {
  std::string id;  ///< sweep point id; empty for a single-run dump
  std::string workload;
  std::string mode;
  net::WireParams wire;
  std::uint64_t offered = 0;
  std::uint64_t recorded = 0;
  std::vector<OpRecord> ops;  ///< the sampled ring, completion order
  std::map<std::int32_t, std::vector<OpRecord>> exemplars;
  std::vector<PathTable> paths;  ///< name-sorted
};

struct Analysis {
  std::string source;
  std::vector<AnalyzedRun> runs;
};

/// Path an op belongs to: "put", "get", or "oneway".
std::string op_path(const OpRecord& op);

/// The selector an op is addressed by (--exemplar): its op_tag when paired,
/// else its request flow id.
std::uint64_t op_id(const OpRecord& op);

/// Parse a flight dump (single object or merged array) and compute every
/// blame table. Throws std::runtime_error on malformed input.
Analysis analyze_flight(const std::string& json_text, std::string source);

/// Render the per-run, per-path blame tables plus the tail-exemplar list.
std::string render_analysis(const Analysis& a, const AnalyzeOptions& opt);

struct AnalyzeDiff {
  std::string text;
  /// Gated metrics that regressed past the threshold; the CLI exits
  /// nonzero when > 0. A self-diff is always 0.
  int regressions = 0;
};

/// Category-by-category diff of `cur` against `base`: runs matched by id
/// (position when ids are empty), paths and categories by name; only
/// metrics present on both sides are gated.
AnalyzeDiff diff_analyses(const Analysis& cur, const Analysis& base,
                          const AnalyzeOptions& opt);

/// Write one op (found by op_id() == selector, exemplars searched first)
/// as a single-op Chrome trace: one span per blame segment on initiator /
/// wire / server lanes, loadable in Perfetto. Returns false when no op
/// matches or the file cannot be written.
bool dump_exemplar_trace(const AnalyzedRun& run, std::uint64_t selector,
                         const std::string& path);

}  // namespace gputn::obs
