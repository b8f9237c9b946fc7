// Discrete-event simulation kernel.
//
// The simulator owns a two-level calendar queue of (time, sequence, callback)
// events: a "now" FIFO for events at the current timestamp, a bucketed wheel
// covering the near-term horizon, and a sorted overflow tier for far-future
// events. Events at equal times execute in insertion order — except a
// spin-wait's reads, which take the place reserved when the wait began
// (ReadOrder, DESIGN.md §17) — which, together with the single-threaded
// execution model, makes every simulation fully deterministic. Coroutine
// processes (`Task<>`) are driven by scheduling their resumption through
// this queue.
#pragma once

#include <array>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/task.hpp"
#include "sim/units.hpp"

namespace gputn::sim {

class Simulator;

/// Awaiter of Simulator::delay(d): suspends the awaiting coroutine for `d`
/// picoseconds, in one event at now() + d, and does not suspend at all when
/// d <= 0. A leaf op that is a pure delay returns it, and one that acts
/// when its delay ends derives from it and adds an await_resume
/// (gpu::WorkGroupCtx, cpu::Cpu), so a leaf op allocates no frame.
struct [[nodiscard]] Delay {
  Simulator* sim;
  Tick d;
  bool await_ready() const noexcept { return d <= 0; }
  void await_suspend(std::coroutine_handle<> h) const;
  void await_resume() const noexcept {}
};

/// Ownership rule (parallel experiments): a Simulator and everything built
/// on it — Cluster, nodes, stats registries, trace recorders, buffer pools,
/// RNGs, workload state — form one isolated world confined to a single
/// thread at a time. The simulation path holds no mutable globals (the one
/// process-wide object, workloads::Registry, is append-only at startup and
/// written only before workers start), so exp::Runner may execute any
/// number of Simulators concurrently, one per run point, and their results
/// are bit-identical to serial execution. Anything a run mutates must be
/// owned by (or reachable only from) its own Simulator/Cluster. A run may
/// start a helper thread only for work that touches none of this world and
/// is joined before its result is read (run_jacobi's scalar reference).
class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Tick now() const { return now_; }
  /// Stable pointer to the current time, for observers that stamp records
  /// without holding the Simulator (obs::FlightSpool).
  const Tick* now_ptr() const { return &now_; }

  /// Schedule a callback at absolute time `when` (must be >= now()).
  /// A forwarding template defined inline so hot callers compile down to
  /// constructing the closure directly in its event slot — no call, no
  /// intermediate EventFn relocation.
  template <typename F>
    requires std::is_invocable_r_v<void, std::remove_cvref_t<F>&>
  void schedule_at(Tick when, F&& fn) {
    assert(when >= now_ && "cannot schedule events in the past");
    next_seq_++;
    pending_++;
    if (when <= now_) {
      // Current-timestamp event (includes the delay-0 wakeup fast path,
      // and — under NDEBUG — clamps any past timestamp to now). Appending
      // preserves sequence order: every pending event at now() is already
      // in the FIFO.
      fifo_.emplace_back(std::forward<F>(fn));
      return;
    }
    std::uint64_t blk = block_of(when);
    if (blk < cur_blk_ + kBuckets) {
      std::size_t idx = blk & kBucketMask;
      auto& bucket = wheel_[idx];
      OccWord& w = occ_[idx >> 6];
      std::uint64_t bit = std::uint64_t{1} << (idx & 63);
      // A fresh seq is the largest yet, so only a later `when` already in
      // the bucket can put this insert out of order.
      if (bucket.empty()) {
        take_spare(bucket);
      } else if (when < bucket.back().when) {
        w.dirty |= bit;
      }
      bucket.emplace_back(when, next_seq_ - 1, std::forward<F>(fn));
      w.occ |= bit;
      occ_summary_ |= std::uint64_t{1} << (idx >> 6);
    } else {
      schedule_overflow(when, next_seq_ - 1, EventFn(std::forward<F>(fn)));
    }
  }
  /// Schedule a callback `delay` picoseconds from now.
  template <typename F>
    requires std::is_invocable_r_v<void, std::remove_cvref_t<F>&>
  void schedule_in(Tick delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Zero-allocation fast path: resume `h` at the current timestamp, after
  /// all already-scheduled events at now(). Equivalent to
  /// `schedule_in(0, [h] { h.resume(); })` without the closure.
  void wake(std::coroutine_handle<> h) { schedule_at(now_, EventFn(h)); }
  /// Zero-allocation fast path: resume `h` after `delay` picoseconds.
  void schedule_resume(Tick delay, std::coroutine_handle<> h) {
    schedule_at(now_ + delay, EventFn(h));
  }

  /// Run until the event queue is empty. Returns the number of events
  /// executed by this call.
  std::uint64_t run();
  /// Run all events with time <= `until`, then advance now() to `until`.
  std::uint64_t run_until(Tick until);

  /// Earliest pending timestamp (FIFO / drain / wheel / overflow), or
  /// kTickMax when the calendar is empty.
  Tick next_pending_time() const;

  // --- Spin-wait read order (mem::SpinWait, DESIGN.md §17) -------------

  /// The place, within its tick, of every read of one spin-wait: each read
  /// is ordered as if it had been scheduled when the wait began. `seq` is
  /// the one sequence number reserved then, at time `t0`.
  struct ReadOrder {
    Tick t0 = 0;
    std::uint64_t seq = 0;
  };
  /// Reserve `o` at now().
  void reserve_order(ReadOrder& o);
  /// True when an event at now() in the place `o` gives it has yet to run,
  /// i.e. it is ordered after the running event. Outside an event batch
  /// (now-FIFO events, code between runs) every such place has passed.
  bool yet_to_run(const ReadOrder& o) const { return o.seq > cur_seq_; }
  /// Schedule `fn` at `when` in the place `o` gives it. Requires
  /// when > now(), or when == now() and yet_to_run(o); a current-tick
  /// event joins the executing batch at its place in sequence order.
  void schedule_ordered(Tick when, const ReadOrder& o, EventFn fn);

  /// Awaitable that suspends the current coroutine for `d` picoseconds.
  Delay delay(Tick d) { return Delay{this, d}; }
  /// Callback form of delay(d), for passive hardware units: `fn` runs
  /// inline when d <= 0, exactly where `co_await delay(d)` would not
  /// suspend, and otherwise in one event at now() + d.
  template <typename F>
    requires std::is_invocable_r_v<void, std::remove_cvref_t<F>&>
  void delay(Tick d, F&& fn) {
    if (delay(d).await_ready()) {
      fn();
    } else {
      schedule_at(now_ + d, std::forward<F>(fn));
    }
  }

  /// Start a detached process. The coroutine runs immediately until its
  /// first suspension; its frame frees itself as its task returns, with no
  /// event (detail::Runner). Nothing joins a process: a coroutine that
  /// waits for tasks runs them as its children (sim::all). An exception
  /// that leaves the process leaves spawn() or the event that resumed it —
  /// and so run() — unchanged; its frame stays listed until
  /// reap_processes(). `name` is for the reader of the call site; nothing
  /// stores it.
  void spawn(Task<> task, std::string_view name = {});

  /// Number of processes spawned that have not yet returned. A nonzero
  /// value after run() returns indicates a deadlocked process (e.g. waiting
  /// on an event nobody will trigger) or one that threw.
  int live_processes() const { return static_cast<int>(live_.size()); }

  std::uint64_t executed_events() const { return executed_events_; }
  std::uint64_t scheduled_events() const { return next_seq_; }
  /// Events scheduled but not yet started, excluding the one currently
  /// executing. Maintained live (executed_events() is flushed only when a
  /// run loop exits), so an event callback observing pending_events() == 0
  /// knows the queue will be empty — and run() will return — the moment it
  /// finishes. This is what lets a self-rescheduling observer (the
  /// obs::TimeSeries sampler) stop instead of keeping the simulation alive
  /// forever.
  std::uint64_t pending_events() const { return pending_; }

  /// Destroy the frames of the processes that did not return (a
  /// deadlocked rank, a parked work-group, a process that threw); a
  /// returned process has freed its own. Owners of simulated hardware (e.g.
  /// Cluster) call this in their destructors so those frames die before
  /// the objects they reference.
  void reap_processes();

 private:
  // Calendar geometry: 4096 buckets of 128 ps each give a ~0.52 us horizon
  // — enough that the per-packet delays (wire hops, doorbells, DMA, all
  // under ~0.5 us) stay on the wheel and only coarse timeouts and kernel
  // launches spill to the overflow tier.
  static constexpr int kBlockShift = 7;  // 128 ps per bucket
  static constexpr std::size_t kBucketBits = 12;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::size_t kBucketMask = kBuckets - 1;
  static constexpr std::size_t kOccWords = kBuckets / 64;

  struct Item {
    Tick when;
    std::uint64_t seq;
    EventFn fn;
  };
  /// Execution order: true when `a` runs before `b`. (when, seq) keys are
  /// unique — a spin-wait arms at most one read per tick on its one
  /// reserved seq — so this is a strict total order on pending events.
  static bool before(const Item& a, const Item& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  /// Min-heap comparator for the overflow tier: `a` runs after `b`.
  static bool after(const Item& a, const Item& b) { return before(b, a); }

  static constexpr std::uint64_t block_of(Tick when) {
    return static_cast<std::uint64_t>(when) >> kBlockShift;
  }

  /// Shared core of run()/run_until(): executes events with when <= limit.
  /// Templated on whether the limit is finite: run() — the hot full-drain
  /// loop — instantiates Bounded=false and compiles with zero limit checks,
  /// while run_until's instantiation carries the guards that keep the wheel
  /// cursor from being parked past block_of(limit) (see
  /// advance_to_next_batch).
  template <bool Bounded>
  std::uint64_t run_loop(Tick limit);
  /// Advances the cursor to the earliest occupied block (promoting overflow
  /// as needed) and stages its events via prepare_batch, leaving the next
  /// batch at drain_'s head and now() at its timestamp. Returns false — with
  /// the cursor never committed past block_of(limit) — when the earliest
  /// pending event exceeds `limit`, or when nothing is pending. Inlined into
  /// run_loop: one call per batch is pure overhead.
  template <bool Bounded>
  __attribute__((always_inline)) bool advance_to_next_batch(Tick limit);
  /// Out-of-line slow path of schedule_at: push onto the far-future heap.
  void schedule_overflow(Tick when, std::uint64_t seq, EventFn fn);
  /// Moves schedule_ordered's current-tick events into drain_ at their
  /// places. Runs between batch events, never while one executes.
  void merge_late();
  /// Moves bucket `blk`'s events into drain_ (an O(1) vector swap when
  /// drain_ is empty), orders them if an insert dirtied the bucket, and
  /// sets now() to the earliest pending timestamp — leaving that batch at
  /// drain_'s head for run_loop to execute in place. Returns false without
  /// committing anything if the earliest event is past `limit`. Inlined
  /// into the advance path: it runs once per batch.
  template <bool Bounded>
  __attribute__((always_inline)) bool prepare_batch(std::uint64_t blk,
                                                    Tick limit);
  /// Puts an out-of-order drain_ (head at 0) into execution order: a
  /// merge when it is two ordered runs, a sort otherwise.
  void order_drain();
  /// Releases drain_ once its last event has run, and clears the cursor
  /// bucket's occupancy bit unless the bucket gained events meanwhile.
  void finish_drain();
  /// Cold path of run_loop when an executing event throws: consumes the
  /// thrown event and re-queues the rest of its batch into the FIFO so it
  /// stays runnable, ordered before anything the batch appended there.
  void consume_after_throw(Tick t);
  /// Offset in [0, kBuckets) of the first occupied bucket at or after
  /// cur_blk_, or kBuckets if the wheel is empty.
  std::size_t next_occupied_offset() const;
  /// Moves overflow items that now fall inside the wheel horizon
  /// [cur_blk_, cur_blk_ + kBuckets) into their buckets. Must be called on
  /// every cur_blk_ increase so no overflow item is ever behind the cursor.
  void promote_overflow();
  void insert_into_wheel(Item&& item);
  /// An empty bucket holds no storage: before its first insert it takes
  /// the top of spare_, if any, and otherwise grows its own.
  void take_spare(std::vector<Item>& bucket) {
    if (spare_.empty()) return;
    bucket.swap(spare_.back());
    spare_.pop_back();
  }
  /// Moves an emptied vector's storage onto spare_, leaving it none.
  void give_back(std::vector<Item>& v) {
    if (v.capacity() == 0) return;
    spare_.emplace_back();
    spare_.back().swap(v);
  }

  Tick now_ = 0;
  std::uint64_t cur_blk_ = 0;  // invariant: block_of(now_) <= cur_blk_
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_events_ = 0;
  std::uint64_t pending_ = 0;  // scheduled, not yet started (live count)
  // Sequence number of the running batch event; the maximum while now-FIFO
  // events run and between runs, since every read of a spin-wait due at
  // now() was reserved before now() and so ran ahead of them.
  std::uint64_t cur_seq_ = ~std::uint64_t{0};
  // schedule_ordered's current-tick events, waiting for merge_late.
  std::vector<Item> late_;

  // Events at when == now(): executed front to back; appends during
  // execution keep sequence order because only current-time events land
  // here. This is the zero-delay wakeup fast path — no heap, no sort.
  std::vector<EventFn> fifo_;
  std::size_t fifo_head_ = 0;

  // kBuckets vectors in arrival order. Inserts append; one that is ordered
  // before the bucket's last item sets the bucket's dirty bit. When the
  // cursor reaches a bucket, a clean one is already in (when, seq) order
  // and runs as it is; a dirty one is merged or sorted ONCE. Every
  // same-timestamp batch is then a run off the head — O(1) per event,
  // already in sequence order, no matter how deep the bucket is. A bucket
  // holds storage only while it holds events (take_spare / give_back).
  std::array<std::vector<Item>, kBuckets> wheel_;
  // Storage given up by drains, handed to the next empty bucket that takes
  // an event. The spares, the occupied buckets and drain_ hold all of the
  // calendar's storage: at most (peak occupied buckets + 1) vectors, and a
  // steady state allocates nothing.
  std::vector<std::vector<Item>> spare_;
  // Occupancy ("has events") and dirty ("out of order") bitmaps, word-
  // interleaved so an insert updates both with one cache line touched.
  struct OccWord {
    std::uint64_t occ = 0;
    std::uint64_t dirty = 0;
  };
  std::array<OccWord, kOccWords> occ_{};
  // Second bitmap level: bit w set iff occ_[w].occ != 0. With kOccWords ==
  // 64 one word summarizes the whole wheel, so next_occupied_offset is two
  // countr_zero calls instead of a scan over up to 65 words.
  static_assert(kOccWords == 64, "occ_summary_ assumes a 64-word wheel");
  std::uint64_t occ_summary_ = 0;
  // The cursor bucket's events in (when, seq) order — handed over from the
  // bucket vector by swap, executed in place from drain_head_. Each event's
  // closure is destroyed right after it runs; the vector is cleared once
  // the head reaches its end. Private to the engine: user code can never
  // reach it (same-time schedules go to the FIFO, same-block ones to the
  // bucket vector), so events are invoked in place with no relocation into
  // scratch. Non-empty only for the cursor's block; the cursor never
  // advances past a block whose drain still has content.
  std::vector<Item> drain_;
  std::size_t drain_head_ = 0;
  // Far-future tier: min-heap on (when, seq). A heap (not a sorted vector)
  // because promotion interleaves with insertion — peeking the minimum must
  // stay O(1) no matter how many far timeouts pile up between advances.
  std::vector<Item> overflow_;
  // block_of(overflow_.front().when), or ~0 when overflow_ is empty.
  // Cached so the per-advance "anything to promote?" check is one compare
  // against a hot member instead of a heap peek behind a function call.
  std::uint64_t overflow_min_blk_ = ~std::uint64_t{0};
  /// The top frames of the processes that have not returned. Unordered: a
  /// returning frame takes itself off in O(1), by a swap-remove at the slot
  /// its promise records; reap_processes() destroys the rest.
  std::vector<detail::Runner::Handle> live_;
};

inline void Delay::await_suspend(std::coroutine_handle<> h) const {
  sim->schedule_resume(d, h);
}

}  // namespace gputn::sim
