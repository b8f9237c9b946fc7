// Coroutine synchronization primitives for simulated processes.
//
// All primitives resume waiters *through the simulator's event queue* at the
// current tick rather than inline. This bounds native stack depth and makes
// wake-up ordering deterministic (FIFO by registration).
#pragma once

#include <coroutine>
#include <deque>
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

/// Unbounded FIFO mailbox. `push` never blocks; `pop` suspends while empty.
/// Used for NIC command queues, trigger FIFOs, and inter-agent messages.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_(&sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void push(T value) {
    buffer_.push_back(std::move(value));
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->wake(h);
    }
  }

  Task<T> pop() {
    while (buffer_.empty()) {
      struct Awaiter {
        Channel* ch;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) {
          ch->waiters_.push_back(h);
        }
        void await_resume() const noexcept {}
      };
      co_await Awaiter{this};
    }
    T v = std::move(buffer_.front());
    buffer_.pop_front();
    // If items remain and other consumers are waiting, let the next one run.
    if (!buffer_.empty() && !waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->wake(h);
    }
    co_return v;
  }

  bool empty() const { return buffer_.empty(); }
  std::size_t size() const { return buffer_.size(); }

 private:
  Simulator* sim_;
  std::deque<T> buffer_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore with FIFO hand-off. Models exclusive or limited
/// resources (link occupancy, DMA engines, CPU cores, compute units).
class Semaphore {
 public:
  Semaphore(Simulator& sim, int initial) : sim_(&sim), available_(initial) {
    if (initial < 0) throw std::invalid_argument("negative semaphore count");
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  Task<> acquire() {
    if (available_ > 0 && waiters_.empty()) {
      --available_;
      co_return;
    }
    struct Awaiter {
      Semaphore* s;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        s->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    co_await Awaiter{this};
    // The releaser transferred a permit directly to us.
  }

  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->wake(h);
    } else {
      ++available_;
    }
  }

  int available() const { return available_; }
  int waiting() const { return static_cast<int>(waiters_.size()); }

 private:
  Simulator* sim_;
  int available_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Await completion of a set of process handles (fork/join helper).
inline Task<> join_all(std::vector<ProcessHandle> handles) {
  for (auto& h : handles) co_await h.join();
}

/// A run's completion monitor: join every handle in order, then record in
/// `done` the tick the last one finished. `done` must outlive the process.
inline Task<> join_all_at(Simulator& sim, std::vector<ProcessHandle> handles,
                          Tick& done) {
  co_await join_all(std::move(handles));
  done = sim.now();
}

}  // namespace gputn::sim
