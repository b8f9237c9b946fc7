// Credit-based flow control tests (Switch credits + Fabric wiring).
//
// The contract under test: a finite-credit port never has more packets
// between wire-submit and downstream-dequeue than its credit pool; credit
// exhaustion throttles but never deadlocks (the event queue always drains);
// an idle multi-hop fabric is *exact* — a lone message arrives at precisely
// net::ideal_wire's total, which is what keeps the flight recorder's
// wire-vs-switch_queue blame split honest; and sustained incast pressure
// surfaces as a SATURATED util.sw.* resource in `gputn report`.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "net/switch.hpp"
#include "net/wire.hpp"
#include "obs/report.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
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

FabricConfig config_for(const std::string& topology, int credits,
                        const std::string& routing = "deterministic") {
  FabricConfig c;
  c.bandwidth = sim::Bandwidth::gbps(100);
  c.link_latency = sim::ns(100);
  c.switch_latency = sim::ns(100);
  c.mtu_bytes = 4096;
  c.header_bytes = 64;
  c.per_packet_overhead = 16;
  c.topology = topology;
  c.routing = routing;
  c.credits_per_port = credits;
  return c;
}

struct Fixture {
  Fixture(int nodes, FabricConfig cfg) : fabric(sim, std::move(cfg)) {
    for (int i = 0; i < nodes; ++i) {
      sinks.push_back(std::make_unique<CollectingSink>(sim));
      fabric.add_node(sinks.back().get());
    }
  }
  sim::Simulator sim;
  net::Fabric fabric;
  std::vector<std::unique_ptr<CollectingSink>> sinks;
};

Message make_msg(int src, int dst, std::size_t payload_bytes) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.kind = 1;
  m.payload.resize(payload_bytes, std::byte{0x5a});
  return m;
}

/// Every switch port: credits were conformed to and all came back.
void expect_credits_conserved(Fabric& fabric, int credits) {
  for (int s = 0; s < fabric.switch_count(); ++s) {
    Switch& sw = fabric.switch_at(s);
    for (int p = 0; p < sw.radix(); ++p) {
      EXPECT_EQ(sw.inflight(p), 0) << "sw" << s << " port" << p;
      if (credits > 0) {
        EXPECT_LE(sw.port_util(p).in_use_max(), credits)
            << "sw" << s << " port" << p;
      }
    }
  }
}

TEST(FlowControl, InFlightNeverExceedsCreditsUnderIncast) {
  Fixture f(4, config_for("star", /*credits=*/1));
  for (int src = 1; src < 4; ++src) {
    for (int i = 0; i < 5; ++i) f.fabric.send(make_msg(src, 0, 8192));
  }
  f.sim.run();
  ASSERT_EQ(f.sinks[0]->messages.size(), 15u);
  // The shared egress port genuinely stalled and never overshot its pool.
  EXPECT_GT(f.fabric.switch_at(0).credit_stalls(), 0u);
  expect_credits_conserved(f.fabric, 1);
  f.sim.reap_processes();
}

TEST(FlowControl, ThrottlesButDeliversEverythingOnAFatTree) {
  Fixture f(16, config_for("fat-tree:k=4", /*credits=*/2));
  // All-to-one incast across pods: every trunk toward node 0 is contended.
  for (int src = 1; src < 16; ++src) f.fabric.send(make_msg(src, 0, 4096));
  f.sim.run();
  ASSERT_EQ(f.sinks[0]->messages.size(), 15u);
  expect_credits_conserved(f.fabric, 2);
  f.sim.reap_processes();
}

TEST(FlowControl, SingleCreditTorusAllToAllNeverWedges) {
  // Deadlock-freedom smoke: the tightest credit pool on a wrapped topology
  // with every node talking to every other. Output queues are unbounded and
  // credits return on downstream dequeue, so the run must terminate with
  // every message delivered.
  Fixture f(8, config_for("torus:2x2x2", /*credits=*/1));
  for (int src = 0; src < 8; ++src) {
    for (int dst = 0; dst < 8; ++dst) {
      if (src != dst) f.fabric.send(make_msg(src, dst, 2048));
    }
  }
  f.sim.run();
  for (int dst = 0; dst < 8; ++dst) {
    EXPECT_EQ(f.sinks[dst]->messages.size(), 7u) << "node " << dst;
  }
  expect_credits_conserved(f.fabric, 1);
  f.sim.reap_processes();
}

TEST(FlowControl, AdaptiveRoutingUnderCreditsIsRunToRunIdentical) {
  auto run_once = [] {
    Fixture f(16, config_for("fat-tree:k=4", /*credits=*/2, "adaptive"));
    for (int src = 1; src < 16; ++src) {
      f.fabric.send(make_msg(src, src % 4, 4096));
      f.fabric.send(make_msg(src, 0, 4096));
    }
    f.sim.run();
    std::vector<sim::Tick> all;
    for (auto& s : f.sinks) {
      all.insert(all.end(), s->arrival_times.begin(), s->arrival_times.end());
    }
    f.sim.reap_processes();
    return all;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FlowControl, IdleMultiHopFabricIsExactlyIdeal) {
  // One message, empty fabric: measured latency must equal the hop-aware
  // ideal to the picosecond, on the parameters the flight dump carries —
  // this pins switch_queue == 0 on an idle fat-tree.
  Fixture f(16, config_for("fat-tree:k=4", /*credits=*/0));
  const std::size_t bytes = 10000;
  EXPECT_EQ(f.fabric.hop_count(0, 15), 5);
  f.fabric.send(make_msg(0, 15, bytes));
  f.sim.run();
  ASSERT_EQ(f.sinks[15]->arrival_times.size(), 1u);
  sim::Tick got = f.sinks[15]->arrival_times[0];
  EXPECT_EQ(got, net::ideal_wire(f.fabric.wire(), bytes, 5).total());

  net::WireParams w;
  w.bytes_per_sec = sim::Bandwidth::gbps(100).bytes_per_second();
  w.link_latency_ps = sim::ns(100);
  w.switch_latency_ps = sim::ns(100);
  w.mtu_bytes = 4096;
  w.header_bytes = 64;
  w.per_packet_overhead = 16;
  EXPECT_EQ(f.fabric.wire(), w);
  EXPECT_EQ(got, net::ideal_wire(w, bytes, /*hops=*/5).total());
  // And the star fabric's one-hop figure is the same function at hops = 1.
  Fixture star(2, config_for("star", 0));
  EXPECT_EQ(star.fabric.hop_count(0, 1), 1);
  EXPECT_EQ(net::ideal_wire(w, bytes, 1).total(),
            net::ideal_wire(star.fabric.wire(), bytes, 1).total());
  f.sim.reap_processes();
}

TEST(FlowControl, UnlimitedCreditsExportNoPortLedgers) {
  Fixture f(4, config_for("star", /*credits=*/0));
  for (int src = 1; src < 4; ++src) f.fabric.send(make_msg(src, 0, 8192));
  f.sim.run();
  sim::StatRegistry reg;
  f.fabric.export_stats(reg);
  EXPECT_EQ(reg.counter_value("net.credit_stalls"), 0u);
  for (const auto& [name, value] : reg.counters()) {
    EXPECT_EQ(name.rfind("util.sw.", 0), std::string::npos) << name;
    (void)value;
  }
  f.sim.reap_processes();
}

TEST(FlowControl, IncastShowsUpAsSaturatedInTheReport) {
  // Sustained single-credit incast pins the egress port's credit ledger at
  // ~100% busy; `gputn report` must rank it and flag SATURATED.
  Fixture f(4, config_for("star", /*credits=*/1));
  for (int src = 1; src < 4; ++src) {
    for (int i = 0; i < 20; ++i) f.fabric.send(make_msg(src, 0, 8192));
  }
  f.sim.run();
  sim::StatRegistry reg;
  f.fabric.export_stats(reg);
  reg.counter("util.window_ps") += static_cast<std::uint64_t>(f.sim.now());

  obs::Report rep = obs::parse_report(sim::stats_json(reg), "incast-test");
  std::string text = obs::render_report(rep, obs::ReportOptions{});
  EXPECT_NE(text.find("sw.0.port0"), std::string::npos) << text;
  EXPECT_NE(text.find("SATURATED"), std::string::npos) << text;
  f.sim.reap_processes();
}

}  // namespace
}  // namespace gputn::net
