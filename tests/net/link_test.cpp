// Unit tests for the Link and Switch primitives in isolation.
#include "net/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/fabric.hpp"
#include "net/routing_api.hpp"
#include "net/switch.hpp"
#include "net/topology_api.hpp"
#include "sim/simulator.hpp"

namespace gputn::net {
namespace {

Packet make_packet(std::uint32_t bytes, bool last = true) {
  auto flight = std::make_shared<MessageInFlight>();
  flight->packets_remaining = 1;
  Packet p;
  p.flight = std::move(flight);
  p.wire_bytes = bytes;
  p.last = last;
  return p;
}

TEST(Link, SerializationPlusPropagation) {
  sim::Simulator sim;
  std::vector<sim::Tick> arrivals;
  // 1 byte/ns, 100 ns propagation.
  Link link(sim, "t", sim::Bandwidth::bytes_per_sec(1e9), sim::ns(100),
            [&](Packet&&) { arrivals.push_back(sim.now()); });
  link.submit(make_packet(500));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], sim::ns(600));
  EXPECT_EQ(link.bytes_transmitted(), 500u);
  EXPECT_EQ(link.packets_transmitted(), 1u);
  sim.reap_processes();
}

TEST(Link, BackToBackPacketsPipelinePropagation) {
  sim::Simulator sim;
  std::vector<sim::Tick> arrivals;
  Link link(sim, "t", sim::Bandwidth::bytes_per_sec(1e9), sim::ns(100),
            [&](Packet&&) { arrivals.push_back(sim.now()); });
  link.submit(make_packet(500));
  link.submit(make_packet(500));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Serialization occupies the wire (500 ns each); propagation overlaps.
  EXPECT_EQ(arrivals[0], sim::ns(600));
  EXPECT_EQ(arrivals[1], sim::ns(1100));
  sim.reap_processes();
}

/// Star topology + deterministic router: the minimal routing harness for
/// exercising a Switch on its own.
struct SwitchRig {
  explicit SwitchRig(int nodes) {
    topo = make_topology("star", nodes);
    router = make_router("deterministic");
  }
  std::unique_ptr<Topology> topo;
  std::unique_ptr<Router> router;
};

Packet packet_to(NodeId dst, std::uint32_t bytes) {
  Packet p = make_packet(bytes);
  p.flight->msg.dst = dst;
  return p;
}

TEST(Switch, ForwardsToAttachedOutputAfterLatency) {
  sim::Simulator sim;
  SwitchRig rig(2);
  std::vector<sim::Tick> arrivals;
  Switch sw(sim, 0, rig.topo->radix(0), sim::ns(100), /*credits=*/0);
  sw.set_router(rig.topo.get(), rig.router.get());
  Link out(sim, "out", sim::Bandwidth::bytes_per_sec(1e9), sim::ns(50),
           [&](Packet&&) { arrivals.push_back(sim.now()); });
  sw.attach_output(0, &out);

  sw.arrive(packet_to(0, 100), nullptr, 0);
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  // 100 ns switch + 100 ns serialization + 50 ns propagation.
  EXPECT_EQ(arrivals[0], sim::ns(250));
  EXPECT_EQ(sw.packets_forwarded(), 1u);
  EXPECT_EQ(sw.credit_stalls(), 0u);
  sim.reap_processes();
}

TEST(Switch, RejectsUnknownDestinations) {
  sim::Simulator sim;
  SwitchRig rig(2);
  Switch sw(sim, 0, rig.topo->radix(0), sim::ns(100), /*credits=*/0);
  sw.set_router(rig.topo.get(), rig.router.get());
  Packet p = packet_to(-1, 64);
  EXPECT_THROW(sw.arrive(std::move(p), nullptr, 0), std::out_of_range);
  // A destination past the star's ports is caught at route time.
  sw.arrive(packet_to(5, 64), nullptr, 0);
  EXPECT_THROW(sim.run(), std::out_of_range);
  sim.reap_processes();
}

TEST(Switch, AttachRejectsOutOfRangePorts) {
  sim::Simulator sim;
  SwitchRig rig(2);
  Switch sw(sim, 0, /*radix=*/2, sim::ns(100), /*credits=*/0);
  Link out(sim, "out", sim::Bandwidth::bytes_per_sec(1e9), sim::ns(50),
           [](Packet&&) {});
  EXPECT_THROW(sw.attach_output(2, &out), std::logic_error);
  EXPECT_THROW(sw.attach_output(-1, &out), std::logic_error);
  sim.reap_processes();
}

TEST(Switch, CreditExhaustionQueuesThenDrainsOnReturn) {
  sim::Simulator sim;
  SwitchRig rig(2);
  std::vector<sim::Tick> arrivals;
  Switch sw(sim, 0, rig.topo->radix(0), sim::ns(100), /*credits=*/1);
  sw.set_router(rig.topo.get(), rig.router.get());
  Link out(sim, "out", sim::Bandwidth::bytes_per_sec(1e9), sim::ns(50),
           [&](Packet&&) { arrivals.push_back(sim.now()); });
  sw.attach_output(0, &out);

  sw.arrive(packet_to(0, 100), nullptr, 0);
  sw.arrive(packet_to(0, 100), nullptr, 0);
  sim.run();
  // Both cross the crossbar at t=100; the single credit lets the first
  // onto the wire, the second parks in the output FIFO.
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], sim::ns(250));
  EXPECT_EQ(sw.inflight(0), 1);
  EXPECT_EQ(sw.credits_available(0), 0);
  EXPECT_EQ(sw.depth(0), 2);  // 1 holding the credit + 1 queued
  EXPECT_EQ(sw.credit_stalls(), 1u);
  EXPECT_EQ(sw.port_util(0).queue_max(), 1);

  // The consumer hands the credit back; the queued packet goes out now.
  sw.credit_return(0);
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1], sim::ns(400));  // 250 + 100 ser + 50 prop
  EXPECT_EQ(sw.port_util(0).queue_depth(), 0);
  sim.reap_processes();
}

TEST(Switch, UnlimitedCreditsNeverStall) {
  sim::Simulator sim;
  SwitchRig rig(2);
  std::vector<sim::Tick> arrivals;
  Switch sw(sim, 0, rig.topo->radix(0), sim::ns(100), /*credits=*/0);
  sw.set_router(rig.topo.get(), rig.router.get());
  Link out(sim, "out", sim::Bandwidth::bytes_per_sec(1e9), sim::ns(50),
           [&](Packet&&) { arrivals.push_back(sim.now()); });
  sw.attach_output(0, &out);
  for (int i = 0; i < 4; ++i) sw.arrive(packet_to(0, 100), nullptr, 0);
  sim.run();
  EXPECT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(sw.credit_stalls(), 0u);
  // With flow control off the credit ledger stays quiet (no ops, no
  // busy time): in-flight pipelining is not buffer pressure.
  EXPECT_EQ(sw.port_util(0).ops(), 0u);
  EXPECT_EQ(sw.port_util(0).busy_ps(sim.now()), 0u);
  sim.reap_processes();
}

}  // namespace
}  // namespace gputn::net
