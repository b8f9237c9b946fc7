// Network fabric: ties NICs, links, switches, topology and routing together.
//
// The fabric's shape is pluggable (FabricConfig::topology, a spec string
// built by net::make_topology): the default "star" reproduces the
// paper's Table 2 single-switch network exactly, while "fat-tree:k=8",
// "torus:4x4x4" and "dragonfly:a=4,h=2,p=2" build multi-switch fabrics with
// inter-switch trunk links and per-port credit-based flow control
// (net/switch.hpp). A message is packetized at the transmitter into
// MTU-sized packets which pipeline through uplink -> switch graph ->
// downlink; the destination sink receives the whole Message when the last
// packet lands. With the deterministic router every (src, dst) pair uses
// one path, so per-flow FIFO ordering holds by construction; the adaptive
// router may spread a pair across paths and reorder *messages*, but a
// single message always survives intact (delivery counts packets, not
// arrival order). The fabric keeps no latency formula of its own: a lone
// message's idle latency is net::ideal_wire (net/wire.hpp) on wire().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/buffer_pool.hpp"
#include "net/link.hpp"
#include "net/message.hpp"
#include "net/routing_api.hpp"
#include "net/switch.hpp"
#include "net/topology_api.hpp"
#include "net/wire.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace gputn::net {

struct FabricConfig {
  sim::Bandwidth bandwidth = sim::Bandwidth::gbps(100);  // Table 2
  sim::Tick link_latency = sim::ns(100);                 // Table 2
  sim::Tick switch_latency = sim::ns(100);               // Table 2
  std::uint32_t mtu_bytes = 4096;
  std::uint32_t header_bytes = 64;  ///< wire overhead per message header
  std::uint32_t per_packet_overhead = 16;
  /// Topology spec built by make_topology at finalize():
  /// "star" | "fat-tree:k=8" | "torus:4x4x4" | "dragonfly:a=4,h=2,p=2".
  std::string topology = "star";
  /// Routing policy built by make_router at finalize() ("deterministic" |
  /// "adaptive").
  std::string routing = "deterministic";
  /// Switch output-port credits (0 = unlimited, the seed's idealized
  /// lossless behavior). See net/switch.hpp for the credit model.
  int credits_per_port = 0;
};

/// State shared by all packets of one in-flight message.
struct MessageInFlight {
  Message msg;
  int packets_remaining = 0;
  MessageSink* sink = nullptr;
  /// Latched when fault injection corrupts any packet; copied into
  /// Message::corrupted on delivery.
  bool corrupted = false;
  /// First packet's arrival at the first switch (-1 until then); copied
  /// into Message::t_switch on delivery so the flight recorder can split
  /// wire serialization from switch queueing.
  std::int64_t t_switch = -1;
};

class Fabric {
 public:
  Fabric(sim::Simulator& sim, FabricConfig config);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Register a node's receive sink; returns its NodeId. All nodes must be
  /// added before the first send (the switch graph is built from the final
  /// node count).
  NodeId add_node(MessageSink* sink);

  int node_count() const { return static_cast<int>(sinks_.size()); }
  const FabricConfig& config() const { return config_; }

  /// Build the topology, switches and trunk links for the current node
  /// count. Idempotent; called implicitly by the first send. Throws
  /// std::invalid_argument on an unknown/malformed topology or routing
  /// spec, or when the topology lacks capacity for the attached nodes.
  void finalize();
  bool finalized() const { return topo_ != nullptr; }

  /// The resolved topology/routing (finalizes on first use).
  const Topology& topology();
  const Router& router();
  int switch_count();
  Switch& switch_at(int id);

  /// Switches traversed src -> dst (1 on a star); finalizes on first use.
  int hop_count(NodeId src, NodeId dst);

  /// Hand a message to the wire. The transmitting NIC calls this after its
  /// DMA has staged the payload; serialization contention on the uplink is
  /// modelled by the link itself.
  void send(Message&& msg);

  /// This fabric's parameters for the ideal wire model: a lone message's
  /// idle latency src -> dst is ideal_wire(wire(), bytes, hop_count(src,
  /// dst)).total() (net/wire.hpp).
  WireParams wire() const;

  std::uint64_t messages_sent() const { return messages_; }
  std::uint64_t bytes_sent() const { return bytes_; }

  /// Install a per-link fault-injector factory (called with the link name,
  /// e.g. "up3"/"down0"/"sw0p4"; may return nullptr for a lossless link).
  /// Applies to links already built and to links built later.
  void set_fault_injector_provider(
      std::function<FaultInjector*(const std::string&)> provider);

  /// Publish fabric-level counters (messages/bytes, per-link utilisation,
  /// switch forwards, credit stalls, per-port credit/queue ledgers when
  /// flow control is on) into `reg`, prefixed "net."/"util.".
  void export_stats(sim::StatRegistry& reg) const;

  /// Allocate the next flow id for traffic originating at `src` (see
  /// Message::flow). Ids are per-source ((src+1) << 40 | seq), unique
  /// cluster-wide; allocation is independent of tracing so runs are
  /// identical with tracing off.
  std::uint64_t next_flow(NodeId src) {
    return ((static_cast<std::uint64_t>(src) + 1) << 40) |
           ++flow_seq_[static_cast<std::size_t>(src)];
  }

  /// Attach a trace recorder: per-message spans land on the switch lanes
  /// ("net.switch" on a single-switch fabric, "net.sw<id>" otherwise) and
  /// "net.down<dst>" with flow steps so viewer arrows pass through the
  /// fabric. nullptr detaches.
  void set_trace(sim::TraceRecorder* trace);

  Link& uplink(NodeId id) { return *uplinks_.at(id); }
  Link& downlink(NodeId id) { return *downlinks_.at(id); }

  /// Shared freelist for Message payload staging buffers. NICs acquire
  /// before the TX DMA and release once a payload has deposited (or its
  /// retransmission-window entry is acknowledged); see BufferPool for why
  /// this cannot affect timing or counters.
  BufferPool& payload_pool() { return payload_pool_; }

 private:
  /// Uplink terminus: hand a packet from node `src` to its edge switch.
  void inject(NodeId src, Packet&& p);
  /// Downlink terminus: per-packet delivery bookkeeping for node `dst`
  /// (the last packet hands the message to its sink), then return the
  /// egress port's credit.
  void deliver(NodeId dst, Packet&& p);
  void apply_trace();

  sim::Simulator* sim_;
  FabricConfig config_;
  std::unique_ptr<Topology> topo_;      // null until finalize()
  std::unique_ptr<Router> router_;
  std::vector<std::unique_ptr<Switch>> switches_;
  // Per node: uplink (node -> edge switch) and downlink (egress switch ->
  // node); multi-switch topologies add directed trunk links ("sw<s>p<p>",
  // named for their transmitting port). Downlinks are built at finalize(),
  // once the topology names each node's egress switch port.
  std::vector<std::unique_ptr<Link>> uplinks_;
  std::vector<std::unique_ptr<Link>> downlinks_;
  std::vector<std::unique_ptr<Link>> trunks_;
  std::vector<HostPort> host_port_;  // per node, filled at finalize()
  std::vector<MessageSink*> sinks_;
  std::function<FaultInjector*(const std::string&)> fault_provider_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::vector<std::uint64_t> flow_seq_;  // per source node
  BufferPool payload_pool_;
  sim::TraceRecorder* trace_ = nullptr;
};

}  // namespace gputn::net
