#include "mem/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "../support/max_rss.hpp"

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
