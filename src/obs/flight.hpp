// Per-op flight recorder: a bounded, deterministic record of individual
// operations' stage timestamps, for post-hoc critical-path blame analysis
// (obs/critical.hpp, `gputn analyze`).
//
// Histograms (lat.*) erase per-op causality and Chrome traces are forbidden
// under --replicas/sweeps; the flight recorder fills the gap. Every NIC a
// recorder is attached to (Cluster::attach_flight) offers it one FlightLeg
// per delivered message, carrying the stamps net::Message already collected
// on its way (post -> ring -> cmd queue -> pop -> token-bucket admit ->
// wire -> switch -> rx -> deposit). Legs sharing a nonzero op_tag — a serve
// put request and its response, a get request and its reply — are stitched
// into one round-trip OpRecord.
//
// Determinism contract (the drift suite pins this):
//   * Recording is pure bookkeeping: no simulator interaction, no delay, so
//     an attached recorder cannot perturb simulated time or any counter.
//   * Sampling is a pure function of (op key, seed): hash-keep 1-in-P. The
//     same run records the same ops regardless of tracing, host threads, or
//     --jobs value.
//   * Tail exemplars: the K slowest ops per tenant are always retained,
//     even when hash-sampled out of the ring, so the op behind a p999
//     spike is available by construction.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "sim/units.hpp"

namespace gputn::obs {

/// One direction of one logical op: a single delivered message's stamps,
/// all in simulator ticks (picoseconds), -1 for stages that did not occur.
struct FlightLeg {
  std::uint64_t flow = 0;
  int src = -1;
  int dst = -1;
  std::uint32_t kind = 0;  ///< NIC message kind (put/get-req/get-reply/...)
  std::uint64_t bytes = 0;
  std::uint32_t retransmits = 0;
  /// Switches the message crossed (>= 1); scales the ideal wire model so
  /// the wire-vs-switch_queue blame split stays exact on multi-hop routes.
  std::uint32_t hops = 1;
  std::int64_t t_trigger = -1;
  std::int64_t t_post = -1;
  std::int64_t t_ring = -1;
  std::int64_t t_cmd = -1;
  std::int64_t t_pop = -1;
  std::int64_t t_admit = -1;
  std::int64_t t_wire_first = -1;
  std::int64_t t_wire = -1;
  std::int64_t t_switch = -1;
  std::int64_t t_rx = -1;
  std::int64_t t_deposit = -1;

  /// Where this leg's latency clock starts: software post when the op went
  /// through a Qp, else the trigger store, else command-queue entry.
  std::int64_t start() const {
    if (t_post >= 0) return t_post;
    if (t_trigger >= 0) return t_trigger;
    return t_cmd;
  }
};

/// One recorded logical operation: a request leg and, when the op is a
/// round trip paired by op_tag, its response leg.
struct OpRecord {
  std::uint64_t op_tag = 0;  ///< 0 = unpaired single-leg op
  std::int32_t tenant = -1;
  FlightLeg req;
  FlightLeg resp;  ///< valid only when has_resp()
  bool has_resp() const { return resp.flow != 0; }

  std::int64_t end() const {
    return has_resp() ? resp.t_deposit : req.t_deposit;
  }
  /// End-to-end op latency (post/trigger to final deposit).
  std::int64_t latency() const { return end() - req.start(); }
};

struct FlightConfig {
  /// Bounded ring of sampled ops; the oldest is overwritten when full.
  std::size_t capacity = 4096;
  /// Keep one op in `sample_period` (hash of op key + seed); 1 = keep all.
  std::uint64_t sample_period = 1;
  std::uint64_t seed = 1;
  /// Slowest ops always retained per tenant, sampling notwithstanding.
  int exemplars_per_tenant = 4;
};

/// Where a NIC offers delivered-message stamps. FlightRecorder implements
/// it directly; a Cluster records each node into a per-node FlightSpool
/// instead and replays the spools into the recorder after the run, in the
/// one canonical order the dump's op order follows.
class FlightSink {
 public:
  virtual ~FlightSink() = default;
  virtual void record(const FlightLeg& leg, std::uint64_t op_tag,
                      std::int32_t tenant) = 0;
};

/// Per-node staging buffer for flight legs. Recording stamps the node's
/// simulated time, so a post-run replay can re-create one global order —
/// (t_record, node, arrival seq) — that is a pure function of each node's
/// (deterministic) event sequence, independent of how the nodes' events
/// interleave within a tick. Pure bookkeeping, like the recorder itself.
class FlightSpool : public FlightSink {
 public:
  explicit FlightSpool(const sim::Tick* now, int node)
      : now_(now), node_(node) {}

  struct Entry {
    sim::Tick t_record = 0;
    int node = -1;
    std::uint64_t seq = 0;  ///< arrival index within this spool
    FlightLeg leg;
    std::uint64_t op_tag = 0;
    std::int32_t tenant = -1;
  };

  void record(const FlightLeg& leg, std::uint64_t op_tag,
              std::int32_t tenant) override {
    entries_.push_back(Entry{*now_, node_, entries_.size(), leg, op_tag,
                             tenant});
  }

  std::vector<Entry>& entries() { return entries_; }

 private:
  const sim::Tick* now_;
  int node_;
  std::vector<Entry> entries_;
};

/// Drain several spools into `sink` in the canonical replay order; clears
/// the spools so a second flush is a no-op.
void replay_spools(std::vector<FlightSpool*> spools, FlightSink& sink);

class FlightRecorder : public FlightSink {
 public:
  explicit FlightRecorder(FlightConfig cfg = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The deterministic keep decision: pure function of (key, seed, period).
  static bool sampled(std::uint64_t key, std::uint64_t seed,
                      std::uint64_t period);

  /// Offer one delivered message's stamps. op_tag == 0 records a single-leg
  /// op immediately; a nonzero tag parks the first leg until its partner
  /// arrives (unmatched legs are flushed as single-leg ops at export).
  void record(const FlightLeg& leg, std::uint64_t op_tag,
              std::int32_t tenant) override;

  /// Wire parameters embedded in the dump, so the analyzer can evaluate
  /// the ideal wire model (net/wire.hpp) on each leg.
  void set_wire(const net::WireParams& wire) { wire_ = wire; }
  /// Run labels written into the dump header (workload name, strategy).
  void set_run_info(std::string label, std::string mode) {
    label_ = std::move(label);
    mode_ = std::move(mode);
  }

  std::uint64_t offered() const { return offered_; }
  std::uint64_t recorded() const { return ring_.size(); }
  std::uint64_t evicted() const { return evicted_; }
  const FlightConfig& config() const { return cfg_; }

  /// Exemplars for one tenant, slowest first (deterministic order).
  std::vector<OpRecord> exemplars(std::int32_t tenant) const;

  /// Deterministic JSON dump: header (labels, wire params, sampling
  /// config), the sampled-op ring in completion order, and the per-tenant
  /// tail exemplars. Flushes still-unpaired legs first (idempotent), so a
  /// dump taken after the run is complete.
  std::string json();

 private:
  struct Pending {
    FlightLeg leg;
    std::int32_t tenant;
    std::uint64_t order;  ///< arrival index, for deterministic flushing
  };

  void finish_op(OpRecord&& op);
  void flush_pending();

  FlightConfig cfg_;
  net::WireParams wire_;
  std::string label_;
  std::string mode_;
  std::map<std::uint64_t, Pending> pending_;  ///< first legs by op_tag
  std::deque<OpRecord> ring_;                 ///< sampled ops, oldest first
  /// Slowest-K ops per tenant, kept sorted slowest first.
  std::map<std::int32_t, std::vector<OpRecord>> exemplars_;
  std::uint64_t offered_ = 0;   ///< completed ops seen (pre-sampling)
  std::uint64_t evicted_ = 0;   ///< ring overwrites
  std::uint64_t arrivals_ = 0;  ///< legs seen (pending-order source)
};

/// Serialize several runs' dumps as one JSON array in the given (plan)
/// order: [{"id": ..., "flight": {...}}, ...]. Used by `--flight` with
/// --replicas; bit-identical across --jobs values because the recorders
/// are per-point and the order is the plan's.
std::string merged_flight_json(
    std::vector<std::pair<std::string, FlightRecorder*>> points);

}  // namespace gputn::obs
