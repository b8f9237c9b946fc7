// Conservative parallel discrete-event engine.
//
// A ShardEngine owns S sequential Simulators ("shards"), each driven by its
// own persistent worker thread, and synchronizes them with conservative
// barrier-window rounds. Per round:
//
//   1. barrier merge — cross-shard deposits (per-edge mailboxes) and
//      horizon-deferred local events are re-inserted into their destination
//      shard's calendar in canonical (when, t_sched, src_shard, seq) order;
//   2. gmin = min over shards of the earliest pending timestamp;
//   3. every shard executes events with when <= min(gmin + lookahead - 1,
//      limit) concurrently, with the deferral horizon armed at
//      gmin + lookahead.
//
// The lookahead is the minimum cross-shard wire propagation delay (set by
// Fabric::finalize), so no shard can receive a cross-shard event inside the
// window it is executing: any remote deposit emitted during the window lands
// at >= t_sched + lookahead >= gmin + lookahead, past every window end.
//
// Determinism: within one shard a window executes in exactly sequential
// (when, seq) order. Across shards, all events at or past the horizon —
// local or remote — are funneled through one merge sorted by
// (when, t_sched, src_shard, seq), where t_sched is the emitting shard's
// clock and seq its per-shard emit counter (shared between the deferral
// path and the mailbox path, so one tick's emissions keep program order).
// Sequentially, same-`when` events execute in scheduling order, and
// scheduling order is exactly t_sched order (ties broken by emit order);
// the merge reproduces it, so workload results, checksums, and stats
// exports are meant to be bit-identical to the sequential engine at any
// shard count. tests/workloads/golden_test.cpp pins this on every
// registered workload, but it is not universal: a 4-client, 4-server
// serve run diverges at 3 and 4 shards (DESIGN.md §15, "A known
// divergence"), likely where events emitted from different shards at one
// t_sched tie and the merge orders them by source shard.
//
// shards == 1 is a degenerate fast path: no worker threads, no horizon, no
// mailboxes — run()/run_until() delegate directly to the one Simulator.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace gputn::sim {

class ShardEngine {
 public:
  explicit ShardEngine(int shards);
  ~ShardEngine();
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  int shards() const { return static_cast<int>(sims_.size()); }
  Simulator& shard(int s) { return *sims_[static_cast<std::size_t>(s)]; }
  const Simulator& shard(int s) const {
    return *sims_[static_cast<std::size_t>(s)];
  }

  /// Conservative lookahead in picoseconds. Must be > 0 before the first
  /// multi-shard run; Fabric::finalize sets it to the minimum cross-shard
  /// link propagation delay (or an effectively-unbounded value when no
  /// edge crosses shards).
  void set_lookahead(Tick la) { lookahead_ = la; }
  Tick lookahead() const { return lookahead_; }

  /// Cross-shard deposit: run `fn` on shard `dst` at absolute time `when`.
  /// Must be called from shard `src`'s window (its worker thread) with
  /// when >= shard(src).now() + lookahead(); the event is mailboxed and
  /// merged at the next barrier.
  void post(int src, int dst, Tick when, EventFn fn);

  /// Drain every shard, then align all clocks at the global last-event
  /// time (sequential run() semantics: one clock). Returns events executed.
  std::uint64_t run();
  /// Run all events with when <= `until`, then park every clock at
  /// `until` (sequential run_until semantics). Returns events executed.
  std::uint64_t run_until(Tick until);

  /// One conservative round: barrier-merge pending deposits, then execute
  /// one lookahead window bounded by `limit`. Returns false — after the
  /// merge, without running a window — when nothing is pending at or below
  /// `limit`. Between calls the shards are quiescent: the caller may
  /// inspect cross-shard state and schedule follow-up events (the serving
  /// workload uses this for its setup-release barrier).
  bool step(Tick limit);
  /// After step() returns false: park every shard clock at `until`.
  void finish_until(Tick until);
  /// Earliest pending timestamp across all shards (kTickMax when idle),
  /// after folding in any mailboxed deposits. step(next_time()) executes a
  /// single-tick window — the serving workload's setup phase uses this so
  /// no shard clock overruns the traffic-release tick.
  Tick next_time();

  int live_processes() const;
  std::uint64_t executed_events() const;
  void reap_processes();

  /// Deterministic per-shard telemetry, exported as util.shard<i>.*:
  /// window spans are virtual time, so the numbers depend only on the
  /// partition and the event trace, never on thread scheduling.
  struct ShardStats {
    std::uint64_t events = 0;         ///< events executed in windows
    std::uint64_t busy_ps = 0;        ///< window span sum when >=1 event ran
    std::uint64_t idle_ps = 0;        ///< window span sum when none did
    std::uint64_t barrier_waits = 0;  ///< windows this shard sat idle
  };
  const std::vector<ShardStats>& shard_stats() const { return stats_; }
  std::uint64_t rounds() const { return rounds_; }

 private:
  struct Mail {
    Tick when;
    Tick t_sched;
    std::uint64_t seq;
    EventFn fn;
  };
  struct MergeItem {
    Tick when;
    Tick t_sched;
    int src;
    std::uint64_t seq;
    EventFn fn;
    /// Set for a spin-wait read order to re-sequence (no event).
    Simulator::ReadOrder* order = nullptr;
  };

  /// Re-insert all mailboxed and deferred events in canonical order.
  void merge_barrier();
  void worker_main(int s);

  std::vector<std::unique_ptr<Simulator>> sims_;
  Tick lookahead_ = 0;
  // Per-shard deferral buffers and emit counters (wired into each
  // Simulator via set_defer_sink); per-(src,dst) mailboxes at src*S+dst.
  // During a window, shard s's worker is the only writer of deferred_[s],
  // emit_seq_[s], and mail_[s*S+..]; the round barrier (mu_) publishes
  // them to the merging main thread — no atomics anywhere on the path.
  std::vector<std::vector<Simulator::Deferred>> deferred_;
  std::vector<std::uint64_t> emit_seq_;
  std::vector<std::vector<Mail>> mail_;
  std::vector<MergeItem> merge_scratch_;
  std::vector<Simulator::Deferred> read_scratch_;

  std::vector<ShardStats> stats_;
  std::uint64_t rounds_ = 0;

  // Round protocol: main arms win_limit_/epoch_ under mu_ and wakes the
  // workers; each runs one window and reports back via done_.
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  int done_ = 0;
  Tick win_limit_ = 0;
  bool stop_ = false;
  std::vector<std::uint64_t> win_executed_;
  std::vector<std::exception_ptr> win_error_;
  std::vector<std::thread> workers_;
};

}  // namespace gputn::sim
