// Per-node physical address space.
//
// The CPU, GPU, and NIC of a node share one coherent memory (the paper's
// high-performance SoC configuration, §5.1). Memory holds real backing bytes
// so workloads compute and verify actual data. Functional accesses (by
// compute models that account time in aggregate) are zero-time; timed
// transfers go through the DMA engine (dma.hpp).
//
// A separate MMIO window routes stores to device handlers — this is how the
// GPU's memory-mapped trigger-address stores reach the NIC (§3.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/units.hpp"

namespace gputn::mem {

using Addr = std::uint64_t;

/// Base of the MMIO window. DRAM allocations never reach this address.
inline constexpr Addr kMmioBase = Addr{1} << 48;

/// A 64-bit word a spin-wait polls, while it is parked on its Memory's
/// watch list (mem/spin_wait.hpp). Memory::write tests `addr` of every
/// parked word on a watched page, so it is a plain member.
class WatchedWord {
 public:
  explicit WatchedWord(Addr a) : addr(a) {}
  WatchedWord(const WatchedWord&) = delete;
  WatchedWord& operator=(const WatchedWord&) = delete;

  const Addr addr;

 protected:
  ~WatchedWord() = default;

 private:
  friend class Memory;
  /// A write just overlapped the word.
  virtual void on_store() = 0;
  bool watched() const { return slot_ != kNotWatched; }

  static constexpr std::size_t kNotWatched = ~std::size_t{0};
  std::size_t slot_ = kNotWatched;  // index in Memory::watchers_
};

/// Device-side receiver for posted MMIO stores.
class MmioHandler {
 public:
  virtual ~MmioHandler() = default;
  virtual void on_mmio_store(Addr addr, std::uint64_t value) = 0;
};

class Memory {
 public:
  /// DRAM is one private anonymous mapping (none for 0 bytes). The kernel
  /// hands out a zeroed page at first touch, so untouched DRAM reads as
  /// zero and costs neither time nor RSS (DESIGN.md §10). Throws
  /// std::bad_alloc when the mapping fails.
  explicit Memory(std::uint64_t dram_bytes);
  ~Memory();
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  /// Bump-allocate a DRAM region. Throws std::bad_alloc when exhausted.
  Addr alloc(std::uint64_t bytes, std::uint64_t align = 64);

  std::uint64_t dram_bytes() const { return dram_bytes_; }
  std::uint64_t allocated_bytes() const { return next_; }

  // -- Functional (zero-time) access --------------------------------------
  /// Every store to DRAM goes through here, so parked spin-waits on the
  /// written words hear of it (see watch()). Inline, so a typed store
  /// compiles to a bounds check, a watch check and a move.
  void write(Addr addr, const void* src, std::size_t n) {
    check_range(addr, n);
    if (!watchers_.empty()) [[unlikely]] {
      // A write under a page touches at most its first and last pages;
      // longer ones (and n == 0, which wraps) take the slow path's scan.
      if (n - 1 >= kWatchPageBytes ||
          page_watchers_[addr >> kWatchPageShift] != 0 ||
          page_watchers_[(addr + n - 1) >> kWatchPageShift] != 0) {
        return write_watched(addr, src, n);
      }
    }
    std::memcpy(dram_ + addr, src, n);
  }
  void read(Addr addr, void* dst, std::size_t n) const {
    check_range(addr, n);
    std::memcpy(dst, dram_ + addr, n);
  }

  template <typename T>
  void store(Addr addr, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(addr, &value, sizeof(T));
  }
  template <typename T>
  T load(Addr addr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    read(addr, &v, sizeof(T));
    return v;
  }

  /// Direct view into backing bytes (bounds-checked). Writes through a
  /// mutable view bypass watch(), so it throws std::logic_error when a
  /// parked spin-wait's word lies in the range: one compare while nothing
  /// is watched, an exact scan of the watch list only when a page in the
  /// range has a parked word. A const view cannot write and is exempt.
  /// Hold no view across a co_await: a wait may park on its range meanwhile.
  std::span<std::byte> bytes(Addr addr, std::size_t n) {
    check_range(addr, n);
    if (!watchers_.empty()) [[unlikely]] check_unwatched(addr, n);
    return {dram_ + addr, n};
  }
  std::span<const std::byte> bytes(Addr addr, std::size_t n) const {
    check_range(addr, n);
    return {dram_ + addr, n};
  }

  /// Typed view of a region (addr must be suitably aligned for T), with
  /// bytes()' rules: a mutable one refuses a parked word, a const one not.
  template <typename T>
  std::span<T> typed(Addr addr, std::size_t count) {
    auto b = bytes(addr, count * sizeof(T));
    return {reinterpret_cast<T*>(b.data()), count};
  }
  template <typename T>
  std::span<const T> typed(Addr addr, std::size_t count) const {
    auto b = bytes(addr, count * sizeof(T));
    return {reinterpret_cast<const T*>(b.data()), count};
  }

  // -- Spin-wait watch list -------------------------------------------------
  /// Park `w`: every write() overlapping its 64-bit word tells it, until
  /// unwatch(w). A write tests per-page watch counts before looking
  /// further, so a write to an unwatched page pays two loads and a compare
  /// (one compare while nothing is watched). unwatch() of a word not
  /// parked is a no-op.
  void watch(WatchedWord* w);
  void unwatch(WatchedWord* w);

  // -- MMIO ----------------------------------------------------------------
  /// Map `bytes` of MMIO space to a handler; returns the window base.
  Addr map_mmio(std::uint64_t bytes, MmioHandler* handler);
  bool is_mmio(Addr addr) const { return addr >= kMmioBase; }
  /// Route a posted store to the owning device. Timing (bus latency) is
  /// modelled by the initiating agent.
  void mmio_store(Addr addr, std::uint64_t value);

 private:
  void check_range(Addr addr, std::size_t n) const {
    if (is_mmio(addr) || addr + n > dram_bytes_ || addr + n < addr)
        [[unlikely]] {
      range_error(addr);
    }
  }
  [[noreturn]] void range_error(Addr addr) const;
  /// write() into a watched page: stores, then tells the watchers of the
  /// words overlapping [addr, addr+n). Out of line, so the inline write()
  /// stays small at every call site.
  __attribute__((noinline)) void write_watched(Addr addr, const void* src,
                                               std::size_t n);
  /// Throws std::logic_error when a parked word overlaps [addr, addr+n).
  void check_unwatched(Addr addr, std::size_t n) const;
  static bool overlaps(const WatchedWord* w, Addr addr, std::size_t n) {
    return w->addr < addr + n && addr < w->addr + sizeof(std::uint64_t);
  }
  /// Adds `d` to the watch counts of the pages `w`'s word touches.
  void count_pages(const WatchedWord* w, int d);

  static constexpr int kWatchPageShift = 12;
  static constexpr std::size_t kWatchPageBytes = std::size_t{1}
                                                 << kWatchPageShift;

  std::byte* dram_ = nullptr;
  std::uint64_t dram_bytes_;
  std::vector<WatchedWord*> watchers_;
  // Watchers per 4 KiB page, sized at the first watch().
  std::vector<std::uint32_t> page_watchers_;
  std::uint64_t next_ = 64;  // never hand out address 0
  Addr next_mmio_ = kMmioBase;
  // MMIO window base -> (limit, handler)
  std::map<Addr, std::pair<Addr, MmioHandler*>> mmio_;
};

/// Convenience owner for an allocated region with typed element access.
template <typename T>
class Buffer {
 public:
  Buffer() = default;
  Buffer(Memory& memory, std::size_t count)
      : mem_(&memory),
        addr_(memory.alloc(count * sizeof(T), alignof(T) > 64 ? alignof(T) : 64)),
        count_(count) {}

  Addr addr() const { return addr_; }
  std::size_t size() const { return count_; }
  std::uint64_t bytes() const { return count_ * sizeof(T); }
  std::span<T> span() { return mem_->typed<T>(addr_, count_); }
  T& operator[](std::size_t i) { return span()[i]; }

 private:
  Memory* mem_ = nullptr;
  Addr addr_ = 0;
  std::size_t count_ = 0;
};

}  // namespace gputn::mem
