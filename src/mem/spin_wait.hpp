// Event-free spin-waits on 64-bit words (DESIGN.md §17).
//
// A spin-wait models a poller that reads a word on the grid
// t0 + first + k * period (k >= 0) until a read sees a value >= the target.
// Emulating it costs one event per read; almost all of them fail. Instead
// the waiter parks its word on its Memory's watch list, and each functional
// store to the word computes, in O(1), the one grid read that will observe
// it. Only that read is scheduled. Every read of a wait is ordered within
// its tick as if it had been scheduled when the wait began (sim::Simulator::
// ReadOrder), so the winning read is the first grid tick ordered after the
// store's place in the event order: the wait wakes on exactly the tick, and
// at exactly the place in that tick, where the polling loop would have.
//
// SpinWait polls one word: the GPU work-group flag wait (first = load
// latency, period = load + poll interval), the host CPU flag wait (first =
// 0, period = poll interval) and the GPU front-end's GDS wait (first = 0,
// period = poll interval). MultiSpinWait polls several, each on its own
// phase of one period: serve's round-robin GPU slot scan and its client
// completion reactor. Both share PolledWord's grid rule.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "mem/memory.hpp"
#include "obs/busy.hpp"
#include "sim/simulator.hpp"

namespace gputn::mem {

/// When a spin-wait reads its word, relative to the wait's start t0.
struct PollGrid {
  /// Delay to the first read. 0 reads at once, inside the awaiting event,
  /// and a wait already satisfied then does not suspend.
  sim::Tick first;
  /// Delay between reads (> 0).
  sim::Tick period;
};

/// One polled word, and the grid rule every spin-wait shares.
class PolledWord : public WatchedWord {
 public:
  PolledWord(Addr addr, std::uint64_t value)
      : WatchedWord(addr), value(value) {}

  /// A read wins when it sees *addr >= value.
  const std::uint64_t value;
  /// The first grid read not yet known to have failed; the grid is
  /// base + k * period.
  sim::Tick base = 0;

  bool satisfied(const Memory& m) const {
    return m.load<std::uint64_t>(addr) >= value;
  }
  /// The first grid read ordered after the running event in the place `o`
  /// gives it: the read that sees a store the running event makes.
  sim::Tick next_read(const sim::Simulator& sim,
                      const sim::Simulator::ReadOrder& o,
                      sim::Tick period) const;
  /// The read due at `now`: true when it sees the target. Otherwise the
  /// value was raised and lowered again since the store that armed the
  /// read, so the read fails and the word parks on `m` again from the next
  /// grid read.
  bool poll(Memory& m, sim::Tick now, sim::Tick period);
};

/// Awaitable: suspends until a read on `grid` sees *addr >= value. park()
/// is the same wait for a passive unit (the GPU front end's GDS wait):
/// the resume target is a callback instead of a coroutine.
///
/// `core`, when given, is the poller's busy ledger: like the polling loop,
/// which ran one compute(period) per failed read, the wait holds one unit
/// from the first failed read to the wake and counts one op per failed
/// read. It requires grid.first == 0.
///
/// Lifetime: the awaiter lives in the awaiting coroutine's frame (or in
/// the unit that parked it). A frame destroyed while parked
/// (Simulator::reap_processes at teardown) leaves its watch in place, so
/// its Memory must see no further stores.
class SpinWait : private PolledWord {
 public:
  SpinWait(sim::Simulator& sim, Memory& memory, Addr addr,
           std::uint64_t value, PollGrid grid,
           obs::BusyTracker* core = nullptr)
      : PolledWord(addr, value), sim_(&sim), mem_(&memory), grid_(grid),
        core_(core) {}

  bool await_ready() const { return grid_.first == 0 && satisfied(*mem_); }
  void await_suspend(std::coroutine_handle<> h) { suspend(sim::resume(h)); }
  void await_resume() const noexcept {}

  /// Callback form of co_await: false when the wait is already satisfied
  /// at a first read at once (await_ready), so the caller goes on inline;
  /// otherwise the wait parks, and `resume` runs at the winning read.
  bool park(sim::Callback<> resume) {
    if (await_ready()) return false;
    suspend(resume);
    return true;
  }

 private:
  void suspend(sim::Callback<> resume);
  void on_store() override;
  /// Schedule the first grid read ordered after the running event.
  void arm();
  /// That read: resume the waiter, or park again if the value fell back.
  void read();

  sim::Simulator* sim_;
  Memory* mem_;
  PollGrid grid_;
  obs::BusyTracker* core_;
  sim::Simulator::ReadOrder order_;
  sim::Callback<> resume_;
};

/// A wait on several words at once. Word i, with target value_i, is read
/// at t0 + first_i + k * period (first_i > 0, k >= 0); every read shares
/// the one ReadOrder reserved at t0. The wait resumes at the earliest read
/// that sees its word >= its target and yields that word's index; reads
/// due on one tick go in index order.
///
/// Each word arms its own winning read, and a later store may arm a read
/// earlier than one already scheduled. The engine cannot cancel an event,
/// so the later of the two stays queued and returns at once when it runs,
/// by a generation check: the losing read. Every read's closure shares
/// ownership of the wait's state, so no read outlives the state it checks,
/// even when the wait and its owner are gone by the time the read runs.
///
/// The handle is reused wait after wait: clear(), add() the words, then
/// co_await wait(). A word add()ed while the wait is parked joins it on
/// its t0 grid. The lifetime rule of SpinWait applies to a handle
/// destroyed while parked.
class MultiSpinWait {
  struct State;

 public:
  MultiSpinWait(sim::Simulator& sim, Memory& memory);
  MultiSpinWait(const MultiSpinWait&) = delete;
  MultiSpinWait& operator=(const MultiSpinWait&) = delete;

  /// Drop the last wait's words. Not while parked.
  void clear();
  /// Add a word with its first read `first` (> 0) after t0. While the wait
  /// is parked, the word's first read is the first on t0 + first +
  /// k * period ordered after the running event.
  void add(Addr addr, std::uint64_t value, sim::Tick first);
  bool parked() const;

  struct Awaiter {
    State* s;
    sim::Tick period;
    obs::BusyTracker* core;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    std::size_t await_resume() const noexcept;
  };
  /// Suspends until a read sees its word's target; yields the word's
  /// index. `core`, when given, is the poller's busy ledger, charged as the
  /// polling loop's back-to-back compute(period) were: one unit from t0 to
  /// the wake and one op per elapsed period. Every first must then be a
  /// multiple of `period`.
  Awaiter wait(sim::Tick period, obs::BusyTracker* core = nullptr) {
    return Awaiter{s_.get(), period, core};
  }

 private:
  std::shared_ptr<State> s_;
};

}  // namespace gputn::mem
