// Synchronization primitives: coroutine waits (Event, Condition), the
// fork/join of child tasks (all), and the passive hardware queues (Fifo,
// Slots).
//
// Every primitive resumes waiters or starts queued items *through the
// simulator's event queue* at the current tick rather than inline. This
// bounds native stack depth and makes wake-up ordering deterministic (FIFO
// by registration).
#pragma once

#include <coroutine>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace gputn::sim {

/// One-shot latch. Once triggered, all current and future waiters proceed
/// immediately. Typical use: completion notifications.
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(&sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool triggered() const { return triggered_; }

  void trigger() {
    if (triggered_) return;
    triggered_ = true;
    for (auto h : waiters_) {
      sim_->wake(h);
    }
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event* e;
      bool await_ready() const noexcept { return e->triggered_; }
      void await_suspend(std::coroutine_handle<> h) {
        e->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulator* sim_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Recurring notification. `wait()` completes on the next `notify_all()`;
/// a waiter that needs a predicate loops on wait() until it holds. There is
/// no latch: notifications wake only currently-registered waiters.
class Condition {
 public:
  explicit Condition(Simulator& sim) : sim_(&sim) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  void notify_all() {
    for (auto h : waiters_) {
      sim_->wake(h);
    }
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Condition* c;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        c->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  int waiter_count() const { return static_cast<int>(waiters_.size()); }

 private:
  Simulator* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

namespace detail {

/// FIFO storage that allocates nothing until its first push (an idle
/// queue costs its three words): a vector read from a head index, cleared
/// whenever it drains.
template <typename T>
class Queue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  void push(T item) {
    if (head_ >= 64 && head_ * 2 >= items_.size()) {
      // A queue that never drains: reclaim the consumed prefix, amortized
      // O(1) per item.
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(item));
  }
  T pop() {
    T item = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
    return item;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace detail

/// A passive hardware queue (DESIGN.md §9): items are served one at a
/// time, in push order, by the unit that owns the queue. The unit's
/// `start` callback receives each item as it leaves the queue, and the
/// unit calls finish() when that item is done. There is no process; the
/// queue schedules these events and no others:
///   * a push to an idle unit schedules one event at now(), in which the
///     head item starts (the unit's wake-up);
///   * a push to a busy or waking unit schedules nothing;
///   * finish() starts the next item inline, in the finishing event, or
///     leaves the unit idle.
/// size() counts waiting items only: an item leaves the queue as it starts.
template <typename T>
class Fifo {
 public:
  Fifo(Simulator& sim, Callback<T&&> start) : sim_(&sim), start_(start) {}
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  void push(T item) {
    items_.push(std::move(item));
    if (idle_) {
      idle_ = false;
      sim_->schedule_at(sim_->now(), [this] { serve(); });
    }
  }

  /// The item in service is done: start the next one, or go idle.
  void finish() {
    if (starting_) {
      finished_ = true;  // done inside start(): serve()'s loop goes on
      return;
    }
    serve();
  }

  std::size_t size() const { return items_.size(); }

 private:
  /// Starts items until one stays in service. A loop rather than
  /// recursion, so a run of items that finish inline (zero service time)
  /// keeps the stack flat.
  void serve() {
    while (!items_.empty()) {
      finished_ = false;
      starting_ = true;
      start_(items_.pop());
      starting_ = false;
      if (!finished_) return;
    }
    idle_ = true;
  }

  Simulator* sim_;
  Callback<T&&> start_;
  detail::Queue<T> items_;
  bool idle_ = true;
  bool starting_ = false;
  bool finished_ = false;
};

/// `count` identical slots granted in request order (DMA engines, GPU
/// work-group slots). The owner's `start` callback receives each request
/// as it is granted, and the owner calls release() when a granted request
/// frees its slot.
///   * A request that finds a free slot and nobody waiting starts inline.
///     Otherwise it waits.
///   * A release with a waiter schedules one hand-off event at now(), in
///     which the head waiter starts. The slot stays taken across the
///     hand-off.
template <typename T>
class Slots {
 public:
  Slots(Simulator& sim, int count, Callback<T&&> start)
      : sim_(&sim), start_(start), free_(count) {
    if (count < 0) throw std::invalid_argument("negative slot count");
  }
  Slots(const Slots&) = delete;
  Slots& operator=(const Slots&) = delete;

  void request(T item) {
    if (free_ > 0 && waiting() == 0) {
      --free_;
      start_(std::move(item));
      return;
    }
    queue_.push(std::move(item));
  }

  void release() {
    if (waiting() == 0) {
      ++free_;
      return;
    }
    ++handing_;
    sim_->schedule_at(sim_->now(), [this] {
      --handing_;
      start_(queue_.pop());
    });
  }

 private:
  /// Requests waiting for a slot (not those already handed one).
  std::size_t waiting() const { return queue_.size() - handing_; }

  Simulator* sim_;
  Callback<T&&> start_;
  detail::Queue<T> queue_;
  int free_;
  std::size_t handing_ = 0;  ///< queued requests with a hand-off scheduled
};

/// Awaiter of sim::all(sim, children): runs each task as a child of the
/// awaiting coroutine (the parent) and resumes the parent once every child
/// has returned. A child is not a process: it has no reap event and no
/// name, and the awaiter owns its frame, which dies with the parent's.
///   * At the co_await each child starts, in order, and runs until its
///     first suspension. If every child has returned, the parent does not
///     suspend.
///   * Otherwise the parent waits for the children in order: child 0, then
///     child 1, and so on. When the child it waits for returns, one event
///     is scheduled at now(). That event skips the children that have
///     returned and resumes the parent inline when none is left, or waits
///     for the next one. So a child that returns later in the same tick
///     than the one waited for, and schedules an event there, finds the
///     parent resumed ahead of that event.
///   * An exception that leaves a child leaves the event that resumed it,
///     and so Simulator::run(); the parent never passes that child. A
///     child that throws as it starts throws out of the co_await, which
///     unwinds the parent and destroys the children started before it, so
///     their pending events must not run: such a run is over.
class [[nodiscard]] All {
 public:
  All(Simulator& sim, std::vector<Task<>> children)
      : sim_(&sim), tasks_(std::move(children)) {}
  All(const All&) = delete;
  All& operator=(const All&) = delete;
  ~All() {
    for (Child& c : children_) c.frame.destroy();
  }

  bool await_ready() {
    // The children's frames point at this awaiter, so they are made here,
    // where it no longer moves.
    children_.reserve(tasks_.size());
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      children_.push_back(
          {detail::run_then(std::move(tasks_[i]),
                            [this, i] { on_return(i); })
               .handle});
      children_.back().frame.resume();
    }
    skip_returned();
    return next_ == children_.size();
  }
  void await_suspend(std::coroutine_handle<> parent) { parent_ = parent; }
  void await_resume() const noexcept {}

 private:
  struct Child {
    std::coroutine_handle<> frame;
    bool returned = false;
  };

  void on_return(std::size_t i) {
    children_[i].returned = true;
    if (i != next_ || !parent_) return;  // not the one waited for
    sim_->schedule_at(sim_->now(), [this] {
      skip_returned();
      // The parent's resumption ends this awaiter, so it is the last act.
      if (next_ == children_.size()) parent_.resume();
    });
  }
  void skip_returned() {
    while (next_ < children_.size() && children_[next_].returned) ++next_;
  }

  Simulator* sim_;
  std::vector<Task<>> tasks_;
  std::vector<Child> children_;
  std::size_t next_ = 0;  // the first child that has not returned
  std::coroutine_handle<> parent_;
};

/// Runs `children` as children of the awaiting coroutine:
/// `co_await sim::all(sim, std::move(tasks))`. See All.
inline All all(Simulator& sim, std::vector<Task<>> children) {
  return All(sim, std::move(children));
}

}  // namespace gputn::sim
