#include "net/fabric.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gputn::net {

Fabric::Fabric(sim::Simulator& sim, FabricConfig config)
    : sim_(&sim), config_(std::move(config)) {}

NodeId Fabric::add_node(MessageSink* sink) {
  if (topo_ != nullptr) {
    throw std::logic_error("fabric: add_node after the switch graph was "
                           "finalized (all nodes must attach before traffic)");
  }
  NodeId id = static_cast<NodeId>(sinks_.size());
  sinks_.push_back(sink);
  flow_seq_.push_back(0);
  // The matching downlink is built at finalize(), once the topology names
  // the node's egress switch port.
  uplinks_.push_back(std::make_unique<Link>(
      *sim_, "up" + std::to_string(id), config_.bandwidth,
      config_.link_latency,
      [this, id](Packet&& p) { inject(id, std::move(p)); }));
  if (fault_provider_) {
    uplinks_.back()->set_fault_injector(
        fault_provider_(uplinks_.back()->name()));
  }
  return id;
}

void Fabric::finalize() {
  if (topo_ != nullptr) return;
  topo_ = make_topology(config_.topology, node_count());
  router_ = make_router(config_.routing);
  int nsw = topo_->switch_count();
  switches_.reserve(static_cast<std::size_t>(nsw));
  for (int s = 0; s < nsw; ++s) {
    switches_.push_back(std::make_unique<Switch>(
        *sim_, s, topo_->radix(s), config_.switch_latency,
        config_.credits_per_port));
    switches_.back()->set_router(topo_.get(), router_.get());
  }
  host_port_.resize(sinks_.size());
  for (NodeId n = 0; n < node_count(); ++n) host_port_[n] = topo_->host(n);
  downlinks_.resize(sinks_.size());
  for (int s = 0; s < nsw; ++s) {
    for (int p = 0; p < topo_->radix(s); ++p) {
      PortPeer peer = topo_->peer(s, p);
      if (peer.kind == PortPeer::Kind::kNode) {
        // Host slots beyond the attached node count stay idle (unwired).
        if (peer.index < node_count()) {
          NodeId n = peer.index;
          downlinks_[static_cast<std::size_t>(n)] = std::make_unique<Link>(
              *sim_, "down" + std::to_string(n), config_.bandwidth,
              config_.link_latency,
              [this, n](Packet&& pk) { deliver(n, std::move(pk)); });
          Link* down = downlinks_[static_cast<std::size_t>(n)].get();
          if (fault_provider_) {
            down->set_fault_injector(fault_provider_(down->name()));
          }
          switches_[static_cast<std::size_t>(s)]->attach_output(p, down);
        }
      } else if (peer.kind == PortPeer::Kind::kSwitch) {
        // One directed trunk per transmitting port; the receiving switch
        // dequeues into its crossbar and returns the port's credit there.
        trunks_.push_back(std::make_unique<Link>(
            *sim_, "sw" + std::to_string(s) + "p" + std::to_string(p),
            config_.bandwidth, config_.link_latency,
            [this, t = peer.index, s, p](Packet&& pk) {
              switches_[static_cast<std::size_t>(t)]->arrive(
                  std::move(pk), switches_[static_cast<std::size_t>(s)].get(),
                  p);
            }));
        if (fault_provider_) {
          trunks_.back()->set_fault_injector(
              fault_provider_(trunks_.back()->name()));
        }
        switches_[static_cast<std::size_t>(s)]->attach_output(
            p, trunks_.back().get());
      }
    }
  }
  apply_trace();
}

const Topology& Fabric::topology() {
  finalize();
  return *topo_;
}

const Router& Fabric::router() {
  finalize();
  return *router_;
}

int Fabric::switch_count() {
  finalize();
  return static_cast<int>(switches_.size());
}

Switch& Fabric::switch_at(int id) {
  finalize();
  return *switches_.at(static_cast<std::size_t>(id));
}

int Fabric::hop_count(NodeId src, NodeId dst) {
  finalize();
  return topo_->hop_count(src, dst);
}

void Fabric::inject(NodeId src, Packet&& p) {
  switches_[static_cast<std::size_t>(host_port_[static_cast<std::size_t>(src)]
                                         .sw)]
      ->arrive(std::move(p), nullptr, 0);
}

void Fabric::deliver(NodeId dst, Packet&& p) {
  auto flight = p.flight;
  if (--flight->packets_remaining == 0) {
    flight->msg.corrupted = flight->corrupted;
    flight->msg.t_rx = sim_->now();
    flight->msg.t_switch = flight->t_switch;
    if (trace_ != nullptr && flight->msg.flow != 0 &&
        flight->msg.t_wire >= 0) {
      // One span per message (not per packet) covering its whole time on
      // the wire, on the destination's downlink lane.
      std::string lane = "net.down" + std::to_string(flight->msg.dst);
      trace_->span(lane, "msg", "net", flight->msg.t_wire, flight->msg.t_rx,
                   flow_args(flight->msg));
      trace_->flow_step(lane, "msg", "flow", flight->msg.t_wire,
                        flight->msg.flow);
    }
    flight->sink->deliver(std::move(flight->msg));
  }
  // Host ejection is the downstream dequeue of the egress switch port:
  // return its credit (per packet, after delivery bookkeeping).
  const HostPort& hp = host_port_[static_cast<std::size_t>(dst)];
  switches_[static_cast<std::size_t>(hp.sw)]->credit_return(hp.port);
}

void Fabric::set_fault_injector_provider(
    std::function<FaultInjector*(const std::string&)> provider) {
  fault_provider_ = std::move(provider);
  auto apply = [&](Link& l) {
    l.set_fault_injector(fault_provider_ ? fault_provider_(l.name())
                                         : nullptr);
  };
  for (auto& l : uplinks_) apply(*l);
  for (auto& l : downlinks_) apply(*l);
  for (auto& l : trunks_) apply(*l);
}

void Fabric::export_stats(sim::StatRegistry& reg) const {
  reg.counter("net.messages") += messages_sent();
  reg.counter("net.bytes") += bytes_sent();
  std::uint64_t sw_packets = 0, stalls = 0;
  for (const auto& s : switches_) {
    sw_packets += s->packets_forwarded();
    stalls += s->credit_stalls();
  }
  reg.counter("net.switch.packets") += sw_packets;
  if (stalls > 0) reg.counter("net.credit_stalls") += stalls;
  std::uint64_t link_bytes = 0, link_packets = 0, link_drops = 0,
                link_corrupt = 0;
  auto per_link = [&](const Link& l) {
    link_bytes += l.bytes_transmitted();
    link_packets += l.packets_transmitted();
    link_drops += l.packets_dropped();
    link_corrupt += l.packets_corrupted();
    std::string p = "net.link." + l.name() + ".";
    reg.counter(p + "bytes") += l.bytes_transmitted();
    reg.counter(p + "packets") += l.packets_transmitted();
    if (l.packets_dropped() > 0) reg.counter(p + "drops") += l.packets_dropped();
    if (l.packets_corrupted() > 0) {
      reg.counter(p + "corruptions") += l.packets_corrupted();
    }
    l.util().export_into(reg, "util.link." + l.name(), sim_->now());
  };
  for (const auto& l : uplinks_) per_link(*l);
  for (const auto& l : downlinks_) per_link(*l);
  for (const auto& l : trunks_) per_link(*l);
  reg.counter("net.link.bytes") += link_bytes;
  reg.counter("net.link.packets") += link_packets;
  reg.counter("net.link.drops") += link_drops;
  reg.counter("net.link.corruptions") += link_corrupt;
  // Per-port credit/queue ledgers carry meaning only under flow control;
  // export the ports that saw traffic or pressure.
  if (config_.credits_per_port > 0) {
    for (const auto& s : switches_) {
      for (int p = 0; p < s->radix(); ++p) {
        const obs::BusyTracker& u = s->port_util(p);
        if (u.ops() == 0 && u.queue_max() == 0) continue;
        u.export_into(reg,
                      "util.sw." + std::to_string(s->id()) + ".port" +
                          std::to_string(p),
                      sim_->now());
      }
    }
  }
}

void Fabric::apply_trace() {
  bool single = switches_.size() == 1;
  for (auto& s : switches_) {
    s->set_trace(trace_, single ? "net.switch"
                                : "net.sw" + std::to_string(s->id()));
  }
}

void Fabric::set_trace(sim::TraceRecorder* trace) {
  trace_ = trace;
  apply_trace();
}

void Fabric::send(Message&& msg) {
  if (msg.src < 0 || msg.src >= node_count() || msg.dst < 0 ||
      msg.dst >= node_count()) {
    throw std::out_of_range("fabric: send with unknown src/dst node");
  }
  finalize();
  // Observability stamps. NICs stamp `flow` at first tx; anything else that
  // reaches the wire (ACK/NACK control traffic, direct fabric users) gets a
  // fallback id here. t_wire is re-stamped per wire copy, so a retransmit
  // measures its own wire time; t_wire_first survives retransmission (the
  // reliability layer pre-stamps it on the window copy), so the spread
  // between the two is the total retransmission delay.
  if (msg.flow == 0) msg.flow = next_flow(msg.src);
  msg.t_wire = sim_->now();
  if (msg.t_wire_first < 0) msg.t_wire_first = msg.t_wire;
  // Deterministic-route switch count for the analyzer's per-hop ideal wire
  // model; candidate minimality makes it route-independent (topology_api).
  msg.hops = static_cast<std::uint32_t>(topo_->hop_count(msg.src, msg.dst));
  ++messages_;
  std::uint64_t wire = config_.header_bytes + msg.payload_bytes();
  bytes_ += wire;

  auto flight = std::make_shared<MessageInFlight>();
  flight->sink = sinks_[static_cast<std::size_t>(msg.dst)];
  NodeId src = msg.src;
  flight->msg = std::move(msg);

  // Packetize: first packet carries the header; each packet adds the
  // per-packet overhead on the wire.
  std::uint64_t remaining = wire;
  int packets = 0;
  Link* up = uplinks_[static_cast<std::size_t>(src)].get();
  std::vector<Packet> pkts;
  while (remaining > 0) {
    std::uint64_t chunk = remaining < config_.mtu_bytes ? remaining
                                                        : config_.mtu_bytes;
    remaining -= chunk;
    Packet p;
    p.flight = flight;
    p.wire_bytes = static_cast<std::uint32_t>(chunk) + config_.per_packet_overhead;
    p.last = remaining == 0;
    pkts.push_back(std::move(p));
    ++packets;
  }
  flight->packets_remaining = packets;
  for (auto& p : pkts) up->submit(std::move(p));
}

WireParams Fabric::wire() const {
  return WireParams{config_.bandwidth.bytes_per_second(),
                    config_.link_latency,
                    config_.switch_latency,
                    config_.mtu_bytes,
                    config_.header_bytes,
                    config_.per_packet_overhead};
}

}  // namespace gputn::net
