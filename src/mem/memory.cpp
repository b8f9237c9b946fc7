#include "mem/memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>

namespace gputn::mem {

Memory::Memory(std::uint64_t dram_bytes) : dram_bytes_(dram_bytes) {
  if (dram_bytes == 0) return;
  void* p = mmap(nullptr, dram_bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  dram_ = static_cast<std::byte*>(p);
}

Memory::~Memory() {
  if (dram_ != nullptr) munmap(dram_, dram_bytes_);
}

Addr Memory::alloc(std::uint64_t bytes, std::uint64_t align) {
  if (align == 0 || (align & (align - 1)) != 0) {
    throw std::invalid_argument("alignment must be a power of two");
  }
  Addr base = (next_ + align - 1) & ~(align - 1);
  if (base + bytes > dram_bytes_) throw std::bad_alloc();
  next_ = base + bytes;
  return base;
}

void Memory::range_error(Addr addr) const {
  if (is_mmio(addr)) {
    throw std::out_of_range("functional access to MMIO window");
  }
  throw std::out_of_range("memory access out of bounds");
}

void Memory::write_watched(Addr addr, const void* src, std::size_t n) {
  std::memcpy(dram_ + addr, src, n);
  // Backwards, because on_store() may unwatch(): the swap-remove moves an
  // already-visited watcher into the freed slot.
  for (std::size_t i = watchers_.size(); i-- > 0;) {
    WatchedWord* w = watchers_[i];
    if (overlaps(w, addr, n)) w->on_store();
  }
}

void Memory::check_unwatched(Addr addr, std::size_t n) const {
  if (n == 0) return;
  Addr first = addr >> kWatchPageShift;
  Addr last = (addr + n - 1) >> kWatchPageShift;
  auto counts = std::span(page_watchers_).subspan(first, last - first + 1);
  if (std::ranges::all_of(counts, [](std::uint32_t c) { return c == 0; })) {
    return;
  }
  for (const WatchedWord* w : watchers_) {
    if (overlaps(w, addr, n)) {
      throw std::logic_error(
          "mutable view over a word a spin-wait is parked on");
    }
  }
}

void Memory::count_pages(const WatchedWord* w, int d) {
  Addr first = w->addr >> kWatchPageShift;
  Addr last = (w->addr + sizeof(std::uint64_t) - 1) >> kWatchPageShift;
  for (Addr p = first; p <= last; ++p) {
    page_watchers_[p] += static_cast<std::uint32_t>(d);  // -1 wraps
  }
}

void Memory::watch(WatchedWord* w) {
  check_range(w->addr, sizeof(std::uint64_t));
  if (page_watchers_.empty()) {
    page_watchers_.assign((dram_bytes_ >> kWatchPageShift) + 1, 0);
  }
  w->slot_ = watchers_.size();
  watchers_.push_back(w);
  count_pages(w, +1);
}

void Memory::unwatch(WatchedWord* w) {
  if (!w->watched()) return;
  WatchedWord* last = watchers_.back();
  watchers_[w->slot_] = last;
  last->slot_ = w->slot_;
  watchers_.pop_back();
  w->slot_ = WatchedWord::kNotWatched;
  count_pages(w, -1);
}

Addr Memory::map_mmio(std::uint64_t bytes, MmioHandler* handler) {
  Addr base = next_mmio_;
  next_mmio_ += (bytes + 4095) & ~std::uint64_t{4095};  // page-align windows
  mmio_.emplace(base, std::make_pair(base + bytes, handler));
  return base;
}

void Memory::mmio_store(Addr addr, std::uint64_t value) {
  auto it = mmio_.upper_bound(addr);
  if (it == mmio_.begin()) throw std::out_of_range("unmapped MMIO store");
  --it;
  auto [limit, handler] = it->second;
  if (addr >= limit) throw std::out_of_range("unmapped MMIO store");
  handler->on_mmio_store(addr, value);
}

}  // namespace gputn::mem
