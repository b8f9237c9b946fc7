#include "mem/dma.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace gputn::mem {
namespace {

struct Fixture {
  sim::Simulator sim;
  Memory memory{1 << 20};
  // 1 GB/s = 1 byte/ns for easy arithmetic; 10 ns startup.
  DmaEngine dma{sim, memory, sim::Bandwidth::bytes_per_sec(1e9), sim::ns(10)};
};

TEST(Dma, CopyMovesBytesAndTakesTime) {
  Fixture f;
  Addr src = f.memory.alloc(256);
  Addr dst = f.memory.alloc(256);
  for (int i = 0; i < 256; ++i) {
    f.memory.store<std::uint8_t>(src + i, static_cast<std::uint8_t>(i));
  }
  f.dma.copy(dst, src, 256);
  f.sim.run();
  EXPECT_EQ(f.sim.now(), sim::ns(266));  // 10 startup + 256 bytes
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(f.memory.load<std::uint8_t>(dst + i), i);
  }
  EXPECT_EQ(f.dma.bytes_moved(), 256u);
}

TEST(Dma, TransfersSerializeOnTheEngine) {
  Fixture f;
  Addr a = f.memory.alloc(1000);
  Addr b = f.memory.alloc(1000);
  Addr c = f.memory.alloc(1000);
  f.dma.copy(b, a, 1000);
  f.dma.copy(c, a, 1000);
  f.sim.run();
  // Two 1010 ns transfers back to back, not in parallel.
  EXPECT_EQ(f.sim.now(), sim::ns(2020));
}

TEST(Dma, ReadIntoAndWriteFromRoundTrip) {
  Fixture f;
  Addr src = f.memory.alloc(64);
  Addr dst = f.memory.alloc(64);
  f.memory.store<std::uint64_t>(src, 0x1122334455667788ull);
  // Read into a staging buffer; its completion writes the buffer back out.
  struct RoundTrip {
    Fixture& f;
    Addr src;
    Addr dst;
    std::vector<std::byte> staging;
    int done = 0;
    void read() {
      f.dma.read_into(staging, src, 64, sim::method<&RoundTrip::write>(this));
    }
    void write() {
      f.dma.write_from(dst, staging, sim::method<&RoundTrip::finish>(this));
    }
    void finish() { ++done; }
  } rt{f, src, dst, {}};
  rt.read();
  f.sim.run();
  EXPECT_EQ(f.memory.load<std::uint64_t>(dst), 0x1122334455667788ull);
  EXPECT_EQ(rt.done, 1);
  EXPECT_EQ(f.sim.now(), sim::ns(148));  // two 74 ns transfers
}

TEST(Dma, ZeroByteTransferCostsOnlyStartup) {
  Fixture f;
  Addr a = f.memory.alloc(8);
  f.dma.copy(a, a, 0);
  f.sim.run();
  EXPECT_EQ(f.sim.now(), sim::ns(10));
}

TEST(Dma, DataVisibleOnlyAtCompletionTime) {
  Fixture f;
  Addr src = f.memory.alloc(64);
  Addr dst = f.memory.alloc(64);
  f.memory.store<std::uint64_t>(src, 99);
  f.memory.store<std::uint64_t>(dst, 0);
  f.dma.copy(dst, src, 64);
  f.sim.run_until(sim::ns(50));  // mid-transfer
  EXPECT_EQ(f.memory.load<std::uint64_t>(dst), 0u);
  f.sim.run();
  EXPECT_EQ(f.memory.load<std::uint64_t>(dst), 99u);
}

}  // namespace
}  // namespace gputn::mem
