// Event-free spin-wait on one 64-bit word (DESIGN.md §17).
//
// A spin-wait models a poller that reads *addr on the grid
// t0 + first + k * period (k >= 0) until a read sees a value >= the target.
// Emulating it costs one event per read; almost all of them fail. Instead
// the waiter parks on its Memory's watch list, and each functional store to
// the word computes, in O(1), the one grid read that will observe it. Only
// that read is scheduled. Every read of a wait is ordered within its tick
// as if it had been scheduled when the wait began (sim::Simulator::
// ReadOrder), so the winning read is the first grid tick ordered after the
// store's place in the event order: the wait wakes on exactly the tick, and
// at exactly the place in that tick, where the polling loop would have.
//
// The GPU work-group flag wait (first = load latency, period = load + poll
// interval), the host CPU flag wait (first = 0, period = poll interval) and
// the GPU front-end's GDS wait (first = 0, period = poll interval) are all
// this one primitive.
#pragma once

#include <coroutine>
#include <cstdint>

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

/// Awaitable: suspends until a read on `grid` sees *addr >= value.
///
/// `core`, when given, is the poller's busy ledger: like the polling loop,
/// which ran one compute(period) per failed read, the wait holds one unit
/// from the first failed read to the wake and counts one op per failed
/// read. It requires grid.first == 0.
///
/// Lifetime: the awaiter lives in the awaiting coroutine's frame. A frame
/// destroyed while parked (Simulator::reap_processes at teardown) leaves
/// its watch in place, so its Memory must see no further stores.
class SpinWait {
 public:
  SpinWait(sim::Simulator& sim, Memory& memory, Addr addr,
           std::uint64_t value, PollGrid grid,
           obs::BusyTracker* core = nullptr)
      : sim_(&sim), mem_(&memory), addr_(addr), value_(value), grid_(grid),
        core_(core) {}
  SpinWait(const SpinWait&) = delete;
  SpinWait& operator=(const SpinWait&) = delete;

  bool await_ready() const { return grid_.first == 0 && satisfied(); }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

  /// The polled word.
  Addr addr() const { return addr_; }

 private:
  friend class Memory;
  bool satisfied() const { return mem_->load<std::uint64_t>(addr_) >= value_; }
  /// Memory::write just stored into the word.
  void on_store();
  /// Schedule the first grid read ordered after the running event.
  void arm();
  /// That read: resume the waiter, or park again if the value fell back.
  void read();

  sim::Simulator* sim_;
  Memory* mem_;
  Addr addr_;
  std::uint64_t value_;
  PollGrid grid_;
  obs::BusyTracker* core_;
  sim::Simulator::ReadOrder order_;
  sim::Tick base_ = 0;  // first grid read not yet known to have failed
  std::coroutine_handle<> waiter_;
};

}  // namespace gputn::mem
