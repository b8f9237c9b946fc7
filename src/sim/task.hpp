// Lazy coroutine task type used for all simulated processes.
//
// `Task<T>` is a lazily-started coroutine: it begins execution when awaited
// and resumes its awaiter on completion via symmetric transfer. Workload
// code (host ranks, GPU work-groups, the runtime and serving loops) is
// written as `Task<>` coroutines that `co_await` delays, events, and each
// other. A task runs at the top of a chain in one of two ways: as a process
// the `Simulator` owns (Simulator::spawn), or as a child of the coroutine
// that awaits `sim::all` (sim/sync.hpp). Hardware queues are not processes
// (sim/sync.hpp's Fifo and Slots).
//
// Tasks are single-owner move-only values. Exceptions thrown inside a task
// propagate to the awaiter at `co_await`; one that leaves a process or a
// child leaves the event that resumed it, and so Simulator::run().
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <utility>

namespace gputn::sim {

template <typename T = void>
class [[nodiscard]] Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      // Resume whoever awaited us; if nobody did (detached frame managed by
      // the simulator), stay suspended so the owner can destroy the frame.
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  alignas(T) unsigned char storage[sizeof(T)];
  bool has_value = false;

  Task<T> get_return_object() noexcept;
  template <typename U>
  void return_value(U&& v) {
    ::new (static_cast<void*>(storage)) T(std::forward<U>(v));
    has_value = true;
  }
  T& value() { return *reinterpret_cast<T*>(storage); }
  ~Promise() {
    if (has_value) value().~T();
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  /// Awaiting a Task starts it and resumes the awaiter when it finishes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiter) noexcept {
        handle.promise().continuation = awaiter;
        return handle;  // symmetric transfer: start the child now
      }
      T await_resume() {
        auto& p = handle.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        if constexpr (!std::is_void_v<T>) {
          return std::move(p.value());
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

/// The frame at the top of a process or a child of sim::all: made suspended,
/// it runs its task when first resumed and stops at its final suspend point,
/// where its owner destroys it (or anywhere else, at teardown). An exception
/// that leaves the task leaves resume() too, unchanged, and the frame stops
/// at its final suspend point all the same.
struct Runner {
  struct promise_type {
    Runner get_return_object() noexcept {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { throw; }
  };
  std::coroutine_handle<promise_type> handle;
};

/// Runs `task`, then calls `done()`; an exception skips `done`.
template <typename F>
Runner run_then(Task<> task, F done) {
  co_await std::move(task);
  done();
}

}  // namespace detail

}  // namespace gputn::sim
