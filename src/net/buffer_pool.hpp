// Freelist of payload staging buffers for net::Message.
//
// Every message send DMA-reads its payload into a fresh
// `std::vector<std::byte>`, and the reliability layer keeps a second copy in
// its retransmission window — at high message rates the allocator becomes a
// measurable cost. The pool recycles those vectors: `acquire()` hands back a
// cleared vector with its old capacity intact (so the subsequent
// `resize(n)` allocates nothing when a same-size buffer was pooled), and
// `release()` returns a buffer once its bytes have been deposited or its
// window entry acknowledged.
//
// Pooling is pure allocator behavior: it never touches simulated time or any
// exported `net.*`/`rel.*` counter, so pooled and unpooled runs are
// bit-identical. Hit/miss accessors exist for benchmarks but are
// deliberately not exported into StatRegistry.
//
// The pool belongs to one fabric and is shared by that fabric's NICs. A
// fabric belongs to one run, which one thread drives at a time (the
// isolation rule in sim/simulator.hpp), so the pool takes no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gputn::net {

class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A cleared buffer, reusing pooled capacity when available.
  std::vector<std::byte> acquire() {
    if (free_.empty()) {
      ++misses_;
      return {};
    }
    ++hits_;
    std::vector<std::byte> v = std::move(free_.back());
    free_.pop_back();
    v.clear();
    return v;
  }

  /// Return a buffer whose contents are no longer needed. Buffers with no
  /// capacity are not worth keeping; beyond kMaxFree the buffer is simply
  /// freed so an allocation burst cannot pin memory forever.
  void release(std::vector<std::byte>&& v) {
    if (v.capacity() == 0) return;
    if (free_.size() >= kMaxFree) return;
    v.clear();
    free_.push_back(std::move(v));
  }

  std::size_t pooled() const { return free_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::size_t kMaxFree = 256;
  std::vector<std::vector<std::byte>> free_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace gputn::net
