// Small-buffer-optimized move-only callable used for simulator events.
//
// The engine schedules millions of tiny closures — coroutine resumptions,
// member calls with a couple of captured words, packet hand-offs. With
// `std::function` each of those may heap-allocate and always pays the
// copyable-wrapper machinery. `EventFn` stores any callable up to
// `kInlineBytes` (chosen to cover every closure on the simulator's
// per-packet hot paths) inline in the event record; larger or over-aligned
// callables — e.g. a triggered-put registration carrying a full PutDesc,
// which happens once per message, not once per packet — fall back to one
// heap allocation. Move-only, invoke-at-most-once.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace gputn::sim {

class EventFn {
 public:
  /// Inline capture budget. 40 bytes covers the per-packet closures: a
  /// coroutine handle (8), process/timer bookkeeping (<= 24), and a link or
  /// switch packet hand-off (32: owner pointer + net::Packet). It is chosen
  /// so a calendar-queue record (when + seq + EventFn) is exactly one cache
  /// line; per-message control closures that exceed it take the heap path.
  static constexpr std::size_t kInlineBytes = 40;

  EventFn() = default;

  /// Dedicated fast path for the dominant event: resume a coroutine.
  EventFn(std::coroutine_handle<> h) noexcept {  // NOLINT(runtime/explicit)
    ::new (static_cast<void*>(buf_)) std::coroutine_handle<>(h);
    vt_ = &kResumeVt;
  }

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             !std::is_same_v<std::remove_cvref_t<F>, std::coroutine_handle<>> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT(runtime/explicit)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &InlineOps<Fn>::vt;
    } else {
      ::new (static_cast<void*>(buf_))
          Fn*(new Fn(std::forward<F>(f)));
      vt_ = &HeapOps<Fn>::vt;
    }
  }

  EventFn(EventFn&& o) noexcept : vt_(o.vt_) {
    if (vt_ != nullptr) {
      relocate_from(o);
    }
  }

  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.vt_ != nullptr) {
        vt_ = o.vt_;
        relocate_from(o);
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void operator()() { vt_->invoke(buf_); }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    /// Move-construct into `dst` from `src`, then destroy `src`. Null when
    /// a plain byte copy of the buffer relocates the callable — the common
    /// case (trivially-relocatable captures, heap pointers, coroutine
    /// handles), kept as an inline memcpy instead of an indirect call
    /// because event records relocate several times on the way through the
    /// calendar queue.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when destruction is a no-op (trivially destructible callable).
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static constexpr bool kTrivialRelocate =
        std::is_trivially_move_constructible_v<Fn> &&
        std::is_trivially_destructible_v<Fn>;
    static void invoke(void* s) { (*static_cast<Fn*>(s))(); }
    static void relocate(void* dst, void* src) noexcept {
      Fn* f = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*f));
      f->~Fn();
    }
    static void destroy(void* s) noexcept { static_cast<Fn*>(s)->~Fn(); }
    static constexpr VTable vt{
        &invoke, kTrivialRelocate ? nullptr : &relocate,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn*& slot(void* s) { return *static_cast<Fn**>(s); }
    static void invoke(void* s) { (*slot(s))(); }
    static void destroy(void* s) noexcept { delete slot(s); }
    // Relocation is copying the owning pointer: the byte-copy path.
    static constexpr VTable vt{&invoke, nullptr, &destroy};
  };

  static void resume_invoke(void* s) {
    static_cast<std::coroutine_handle<>*>(s)->resume();
  }
  static constexpr VTable kResumeVt{&resume_invoke, nullptr, nullptr};

  /// Precondition: vt_ == o.vt_ != nullptr. Leaves `o` empty.
  void relocate_from(EventFn& o) noexcept {
    if (vt_->relocate != nullptr) {
      vt_->relocate(buf_, o.buf_);
    } else {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    }
    o.vt_ = nullptr;
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

/// A continuation as a function pointer plus context: two words, so an
/// event that carries one stays inline in EventFn and allocates nothing.
/// Passive hardware units (sim::Fifo, sim::Slots, mem::DmaEngine) take
/// their start and completion callbacks in this form. A default-built
/// Callback is empty.
template <typename... A>
struct Callback {
  void (*fn)(void*, A...) = nullptr;
  void* ctx = nullptr;

  explicit operator bool() const noexcept { return fn != nullptr; }
  void operator()(A... a) const { fn(ctx, std::forward<A>(a)...); }
};

namespace detail {
template <auto Method, typename C, typename... A>
Callback<A...> bind_method(C* obj, void (C::*)(A...)) {
  return {[](void* p, A... a) {
            (static_cast<C*>(p)->*Method)(std::forward<A>(a)...);
          },
          obj};
}
}  // namespace detail

/// Callback that calls member function `Method` on `obj`:
/// `sim::method<&Link::finish>(this)`.
template <auto Method, typename C>
auto method(C* obj) {
  return detail::bind_method<Method>(obj, Method);
}

/// Callback that resumes coroutine `h`.
inline Callback<> resume(std::coroutine_handle<> h) {
  return {[](void* a) { std::coroutine_handle<>::from_address(a).resume(); },
          h.address()};
}

}  // namespace gputn::sim
