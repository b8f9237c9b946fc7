#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace gputn::net {
namespace {

class CollectingSink : public MessageSink {
 public:
  explicit CollectingSink(sim::Simulator& sim) : sim_(&sim) {}
  void deliver(Message&& msg) override {
    arrival_times.push_back(sim_->now());
    messages.push_back(std::move(msg));
  }
  sim::Simulator* sim_;
  std::vector<Message> messages;
  std::vector<sim::Tick> arrival_times;
};

FabricConfig test_config() {
  FabricConfig c;
  c.bandwidth = sim::Bandwidth::gbps(100);  // 80 ps/byte
  c.link_latency = sim::ns(100);
  c.switch_latency = sim::ns(100);
  c.mtu_bytes = 4096;
  c.header_bytes = 64;
  c.per_packet_overhead = 16;
  return c;
}

struct Fixture {
  explicit Fixture(int nodes) {
    for (int i = 0; i < nodes; ++i) {
      sinks.push_back(std::make_unique<CollectingSink>(sim));
      fabric.add_node(sinks.back().get());
    }
  }
  sim::Simulator sim;
  net::Fabric fabric{sim, test_config()};
  std::vector<std::unique_ptr<CollectingSink>> sinks;
};

Message make_msg(int src, int dst, std::size_t payload_bytes) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.kind = 1;
  m.payload.resize(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    m.payload[i] = static_cast<std::byte>(i & 0xff);
  }
  return m;
}

TEST(Fabric, SmallMessageLatencyIsWireDominated) {
  Fixture f(2);
  f.fabric.send(make_msg(0, 1, 64));
  f.sim.run();
  ASSERT_EQ(f.sinks[1]->messages.size(), 1u);
  // 64B payload + 64B header + 16B overhead = 144B on the wire.
  // ser(144)*2 + 2*link + switch = 11.52*2 + 300 = ~323 ns.
  sim::Tick t = f.sinks[1]->arrival_times[0];
  EXPECT_NEAR(sim::to_ns(t), 323.0, 1.0);
  EXPECT_EQ(t, net::ideal_wire(f.fabric.wire(), 64, 1).total());
}

TEST(Fabric, PayloadArrivesIntact) {
  Fixture f(2);
  f.fabric.send(make_msg(0, 1, 10000));  // multi-packet
  f.sim.run();
  ASSERT_EQ(f.sinks[1]->messages.size(), 1u);
  const auto& p = f.sinks[1]->messages[0].payload;
  ASSERT_EQ(p.size(), 10000u);
  for (std::size_t i = 0; i < p.size(); ++i) {
    ASSERT_EQ(p[i], static_cast<std::byte>(i & 0xff));
  }
}

TEST(Fabric, LargeMessagePipelinesAcrossHops) {
  Fixture f(2);
  const std::size_t bytes = 1 << 20;  // 1 MiB
  f.fabric.send(make_msg(0, 1, bytes));
  f.sim.run();
  sim::Tick t = f.sinks[1]->arrival_times[0];
  // Store-and-forward of the whole message would take ~2x serialization;
  // packet pipelining should keep us near 1x (plus one MTU + hops).
  sim::Tick one_ser = test_config().bandwidth.serialize(bytes);
  EXPECT_GT(t, one_ser);
  EXPECT_LT(t, one_ser + sim::us(2));
}

TEST(Fabric, HeaderWordsTravelUnmodified) {
  Fixture f(2);
  Message m = make_msg(0, 1, 8);
  m.h0 = 111;
  m.h1 = 222;
  m.h2 = 333;
  m.h3 = 444;
  m.kind = 7;
  f.fabric.send(std::move(m));
  f.sim.run();
  const auto& got = f.sinks[1]->messages.at(0);
  EXPECT_EQ(got.h0, 111u);
  EXPECT_EQ(got.h1, 222u);
  EXPECT_EQ(got.h2, 333u);
  EXPECT_EQ(got.h3, 444u);
  EXPECT_EQ(got.kind, 7u);
  EXPECT_EQ(got.src, 0);
}

TEST(Fabric, MessagesOnSamePathStayOrdered) {
  Fixture f(2);
  for (int i = 0; i < 10; ++i) {
    Message m = make_msg(0, 1, 256);
    m.h0 = static_cast<std::uint64_t>(i);
    f.fabric.send(std::move(m));
  }
  f.sim.run();
  ASSERT_EQ(f.sinks[1]->messages.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(f.sinks[1]->messages[i].h0, static_cast<std::uint64_t>(i));
  }
}

TEST(Fabric, ConcurrentSendersToDistinctTargetsOverlap) {
  Fixture f(4);
  const std::size_t bytes = 1 << 18;
  f.fabric.send(make_msg(0, 2, bytes));
  f.fabric.send(make_msg(1, 3, bytes));
  f.sim.run();
  // Different uplinks and downlinks: transfers fully overlap.
  ASSERT_EQ(f.sinks[2]->arrival_times.size(), 1u);
  ASSERT_EQ(f.sinks[3]->arrival_times.size(), 1u);
  EXPECT_EQ(f.sinks[2]->arrival_times[0], f.sinks[3]->arrival_times[0]);
}

TEST(Fabric, OutputContentionSerializesOnDownlink) {
  Fixture f(3);
  const std::size_t bytes = 1 << 18;  // 256 KiB each
  f.fabric.send(make_msg(0, 2, bytes));
  f.fabric.send(make_msg(1, 2, bytes));
  f.sim.run();
  ASSERT_EQ(f.sinks[2]->arrival_times.size(), 2u);
  sim::Tick solo = net::ideal_wire(f.fabric.wire(), bytes, 1).total();
  sim::Tick second = f.sinks[2]->arrival_times[1];
  // The second message shares the downlink: it needs ~2x the serialization.
  EXPECT_GT(second, solo + test_config().bandwidth.serialize(bytes) / 2);
}

TEST(Fabric, ByteConservation) {
  Fixture f(2);
  f.fabric.send(make_msg(0, 1, 5000));
  f.fabric.send(make_msg(1, 0, 3000));
  f.sim.run();
  EXPECT_EQ(f.fabric.messages_sent(), 2u);
  EXPECT_EQ(f.fabric.bytes_sent(), 5000u + 3000u + 2 * 64u);
  ASSERT_EQ(f.sinks[0]->messages.size(), 1u);
  ASSERT_EQ(f.sinks[1]->messages.size(), 1u);
  EXPECT_EQ(f.sinks[0]->messages[0].payload.size(), 3000u);
  EXPECT_EQ(f.sinks[1]->messages[0].payload.size(), 5000u);
}

TEST(Fabric, UnknownNodeThrows) {
  Fixture f(2);
  EXPECT_THROW(f.fabric.send(make_msg(0, 5, 8)), std::out_of_range);
  EXPECT_THROW(f.fabric.send(make_msg(-1, 1, 8)), std::out_of_range);
}

TEST(Fabric, BandwidthBoundThroughput) {
  Fixture f(2);
  // 10 x 1 MiB messages on one path: total time ~ total bytes / bandwidth.
  const std::size_t bytes = 1 << 20;
  for (int i = 0; i < 10; ++i) f.fabric.send(make_msg(0, 1, bytes));
  f.sim.run();
  double total_bytes = 10.0 * bytes;
  double secs = sim::to_sec(f.sim.now());
  double achieved = total_bytes / secs;
  double wire_rate = test_config().bandwidth.bytes_per_second();
  EXPECT_GT(achieved, 0.90 * wire_rate);
  EXPECT_LT(achieved, 1.00 * wire_rate);
}

}  // namespace
}  // namespace gputn::net
