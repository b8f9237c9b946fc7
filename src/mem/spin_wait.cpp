#include "mem/spin_wait.hpp"

#include <cassert>

namespace gputn::mem {

void SpinWait::await_suspend(std::coroutine_handle<> h) {
  assert(grid_.period > 0 && (core_ == nullptr || grid_.first == 0));
  waiter_ = h;
  sim_->reserve_order(order_);
  sim::Tick now = sim_->now();
  // A first == 0 wait has just failed its read at t0 (await_ready).
  base_ = now + (grid_.first > 0 ? grid_.first : grid_.period);
  if (core_ != nullptr) core_->acquire(now);
  if (satisfied()) {
    arm();
  } else {
    mem_->watch(this);
  }
}

void SpinWait::on_store() {
  if (!satisfied()) return;
  mem_->unwatch(this);
  arm();
}

void SpinWait::arm() {
  sim::Tick now = sim_->now();
  sim::Tick t = base_;
  if (now >= base_) {
    t = base_ + (now - base_) / grid_.period * grid_.period;
    // A read on the store's own tick sees it only if ordered after it.
    if (t < now || !sim_->yet_to_run(order_)) t += grid_.period;
  }
  sim_->schedule_ordered(t, order_, [this] { read(); });
}

void SpinWait::read() {
  sim::Tick now = sim_->now();
  if (!satisfied()) {
    // Raised and lowered again before this read: it fails, and the wait
    // spins on from the next grid read.
    base_ = now + grid_.period;
    mem_->watch(this);
    return;
  }
  sim_->release_order(order_);
  if (core_ != nullptr) {
    // Failed reads at t0, t0 + period, ..., now - period; acquire()
    // counted the first.
    core_->add_ops(
        static_cast<std::uint64_t>((now - order_.t0) / grid_.period) - 1);
    core_->release(now);
  }
  waiter_.resume();
}

}  // namespace gputn::mem
