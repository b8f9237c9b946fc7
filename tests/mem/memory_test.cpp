#include "mem/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "../support/max_rss.hpp"
#include "mem/dma.hpp"
#include "mem/spin_wait.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace gputn::mem {
namespace {

TEST(Memory, AllocRespectsAlignmentAndBounds) {
  Memory m(1 << 20);
  Addr a = m.alloc(100, 64);
  Addr b = m.alloc(100, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_NE(a, 0u);  // address 0 is never handed out
}

TEST(Memory, AllocThrowsWhenExhausted) {
  Memory m(4096);
  EXPECT_THROW(m.alloc(1 << 20), std::bad_alloc);
}

TEST(Memory, AllocRejectsBadAlignment) {
  Memory m(4096);
  EXPECT_THROW(m.alloc(8, 3), std::invalid_argument);
  EXPECT_THROW(m.alloc(8, 0), std::invalid_argument);
}

constexpr std::uint64_t kDram = std::uint64_t{64} << 20;
constexpr Addr kWords[] = {0, kDram / 2, kDram - 8};  // first, middle, last
constexpr std::size_t kSpan = 1 << 20;

TEST(Memory, UntouchedDramCostsNoResidentMemory) {
  long before = test::max_rss_kb();
  std::vector<std::unique_ptr<Memory>> nodes;
  for (int i = 0; i < 16; ++i) nodes.push_back(std::make_unique<Memory>(kDram));
  EXPECT_LT(test::max_rss_kb() - before, 32 * 1024);  // of 1 GiB of DRAM
}

void expect_zeroed(const Memory& m) {
  for (Addr a : kWords) EXPECT_EQ(m.load<std::uint64_t>(a), 0u) << a;
  auto span = m.bytes(kDram / 2, kSpan);
  EXPECT_TRUE(std::all_of(span.begin(), span.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
}

TEST(Memory, FreshDramReadsZero) {
  {
    Memory m(kDram);
    expect_zeroed(m);
    for (Addr a : kWords) m.store<std::uint64_t>(a, ~std::uint64_t{0});
    auto span = m.bytes(kDram / 2, kSpan);
    std::fill(span.begin(), span.end(), std::byte{0xff});
  }
  // Built right after a written one of the same size was destroyed.
  Memory again(kDram);
  expect_zeroed(again);
}

TEST(Memory, ZeroBytesMapsNothing) {
  Memory m(0);
  EXPECT_EQ(m.dram_bytes(), 0u);
  EXPECT_THROW(m.alloc(1), std::bad_alloc);
}

TEST(Memory, LoadStoreRoundTrip) {
  Memory m(1 << 16);
  Addr a = m.alloc(64);
  m.store<std::uint64_t>(a, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(m.load<std::uint64_t>(a), 0xdeadbeefcafe1234ull);
  m.store<double>(a + 8, 3.25);
  EXPECT_DOUBLE_EQ(m.load<double>(a + 8), 3.25);
}

TEST(Memory, OutOfBoundsAccessThrows) {
  Memory m(4096);
  std::uint64_t v = 0;
  EXPECT_THROW(m.read(4096, &v, 8), std::out_of_range);
  EXPECT_THROW(m.write(4090, &v, 8), std::out_of_range);
}

TEST(Memory, TypedSpanViewsBackingStore) {
  Memory m(1 << 16);
  Addr a = m.alloc(sizeof(float) * 8, 64);
  auto s = m.typed<float>(a, 8);
  for (int i = 0; i < 8; ++i) s[i] = static_cast<float>(i);
  EXPECT_FLOAT_EQ(m.load<float>(a + 4 * sizeof(float)), 4.0f);
}

TEST(Memory, BufferHelper) {
  Memory m(1 << 16);
  Buffer<std::uint32_t> buf(m, 16);
  EXPECT_EQ(buf.size(), 16u);
  EXPECT_EQ(buf.bytes(), 64u);
  buf[3] = 77;
  EXPECT_EQ(m.load<std::uint32_t>(buf.addr() + 3 * 4), 77u);
}

// A mutable view writes around the watch list, so it must refuse a word a
// spin-wait is parked on. Each test first sees the refusal, then the case
// the rule leaves open.

/// A host flag wait parked on `word`, mid-page, until a store raises it.
struct ParkedWait {
  ParkedWait() {
    sim.spawn(
        [](sim::Simulator& s, Memory& m, Addr a) -> sim::Task<> {
          co_await SpinWait(s, m, a, 1, PollGrid{0, sim::ns(60)});
        }(sim, memory, word),
        "waiter");
  }
  Memory memory{1 << 16};
  sim::Simulator sim;
  Addr page = memory.alloc(4096, 4096);
  Addr word = page + 256;
};

TEST(MemoryViewGuard, MutableViewOverAParkedWordThrows) {
  ParkedWait f;
  EXPECT_THROW(f.memory.typed<std::uint64_t>(f.word, 1), std::logic_error);
  EXPECT_THROW(f.memory.typed<double>(f.page, 512), std::logic_error);
  EXPECT_THROW(f.memory.bytes(f.word - 1, 2), std::logic_error);
  EXPECT_THROW(f.memory.bytes(f.word + 7, 1), std::logic_error);
}

TEST(MemoryViewGuard, ViewEndingJustBeforeTheWordSucceeds) {
  ParkedWait f;
  EXPECT_THROW(f.memory.bytes(f.page, 257), std::logic_error);
  EXPECT_EQ(f.memory.bytes(f.page, 256).size(), 256u);
  EXPECT_EQ(f.memory.bytes(f.word + 8, 8).size(), 8u);
}

TEST(MemoryViewGuard, ConstViewOverAParkedWordSucceeds) {
  ParkedWait f;
  EXPECT_THROW(f.memory.bytes(f.page, 4096), std::logic_error);
  const Memory& m = f.memory;
  EXPECT_EQ(m.typed<std::uint64_t>(f.word, 1)[0], 0u);
  EXPECT_EQ(m.bytes(f.page, 4096).size(), 4096u);
}

TEST(MemoryViewGuard, MutableViewSucceedsOnceTheWaitHasWoken) {
  ParkedWait f;
  EXPECT_THROW(f.memory.typed<std::uint64_t>(f.word, 1), std::logic_error);
  f.memory.store<std::uint64_t>(f.word, 1);
  f.sim.run();
  EXPECT_EQ(f.sim.live_processes(), 0);
  f.memory.typed<std::uint64_t>(f.word, 1)[0] = 7;
  EXPECT_EQ(f.memory.load<std::uint64_t>(f.word), 7u);
}

TEST(MemoryViewGuard, DmaCopyFromAParkedWordLands) {
  ParkedWait f;
  DmaEngine dma(f.sim, f.memory, sim::Bandwidth::bytes_per_sec(1e9),
                sim::ns(10));
  for (Addr a = f.page; a < f.page + 512; a += 8) {
    if (a != f.word) f.memory.store<std::uint64_t>(a, a);
  }
  Addr dst = f.memory.alloc(512);
  EXPECT_THROW(f.memory.bytes(f.page, 512), std::logic_error);
  dma.copy(dst, f.page, 512);
  f.sim.run();
  for (Addr a = f.page; a < f.page + 512; a += 8) {
    EXPECT_EQ(f.memory.load<std::uint64_t>(dst + (a - f.page)),
              a == f.word ? 0 : a);
  }
  EXPECT_EQ(f.sim.live_processes(), 1);  // the waiter, still parked
}

class RecordingHandler : public MmioHandler {
 public:
  void on_mmio_store(Addr addr, std::uint64_t value) override {
    last_addr = addr;
    last_value = value;
    ++stores;
  }
  Addr last_addr = 0;
  std::uint64_t last_value = 0;
  int stores = 0;
};

TEST(Memory, MmioRoutesToHandler) {
  Memory m(4096);
  RecordingHandler h1, h2;
  Addr w1 = m.map_mmio(8, &h1);
  Addr w2 = m.map_mmio(8, &h2);
  EXPECT_TRUE(m.is_mmio(w1));
  EXPECT_NE(w1, w2);
  m.mmio_store(w1, 42);
  m.mmio_store(w2, 43);
  EXPECT_EQ(h1.last_value, 42u);
  EXPECT_EQ(h2.last_value, 43u);
  EXPECT_EQ(h1.stores, 1);
}

TEST(Memory, MmioUnmappedThrows) {
  Memory m(4096);
  RecordingHandler h;
  Addr w = m.map_mmio(8, &h);
  EXPECT_THROW(m.mmio_store(w + 8, 1), std::out_of_range);
  EXPECT_THROW(m.mmio_store(kMmioBase + (1 << 30), 1), std::out_of_range);
}

TEST(Memory, FunctionalAccessToMmioThrows) {
  Memory m(4096);
  RecordingHandler h;
  Addr w = m.map_mmio(8, &h);
  std::uint64_t v;
  EXPECT_THROW(m.read(w, &v, 8), std::out_of_range);
}

}  // namespace
}  // namespace gputn::mem
