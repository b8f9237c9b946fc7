// Topology contract: the shape of the fabric, and nothing else.
//
// A Topology is a pure, immutable description of how endpoints (nodes) and
// switches are wired: how many of each, what every switch port connects to,
// which switch port each node hangs off, and — the routing substrate — the
// set of minimal output ports a packet at some switch may take toward a
// destination. It owns no simulator state: the Fabric instantiates links
// and switches from it, and a Router (routing_api.hpp) picks among its
// candidate ports. Keeping the contract this narrow is what lets a new
// topology land as one builder plus one branch in make_topology, with zero
// fabric changes.
//
// Determinism rules every implementation must obey:
//   * candidates() returns ports in a fixed preference order that depends
//     only on (switch, dst) — never on simulator state or iteration order
//     of an unordered container. The first candidate defines the
//     deterministic route (and therefore hop_count()).
//   * Every candidate is minimal: following it strictly decreases the
//     remaining switch-hop distance to the destination. This makes
//     deterministic and adaptive routing loop-free by construction and
//     keeps hop counts router-independent, which the flight recorder's
//     wire-vs-switch_queue blame split relies on.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/message.hpp"

namespace gputn::net {

/// What one switch port is wired to.
struct PortPeer {
  enum class Kind : std::uint8_t { kUnused, kNode, kSwitch };
  Kind kind = Kind::kUnused;
  int index = -1;  ///< NodeId (kNode) or switch id (kSwitch)
  int port = -1;   ///< peer switch's port index (kSwitch only)
};

/// Where a node attaches: its switch and the port on that switch.
struct HostPort {
  int sw = -1;
  int port = -1;
};

class Topology {
 public:
  virtual ~Topology() = default;
  Topology() = default;
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Canonical spec string, e.g. "fat-tree:k=8" (round-trips through
  /// make_topology and appears in describe() output — stable across runs).
  virtual const std::string& name() const = 0;

  /// Endpoint capacity. Runs may attach fewer nodes (ids [0, n) in order);
  /// unused host slots simply stay idle.
  virtual int node_count() const = 0;
  virtual int switch_count() const = 0;
  virtual int radix(int sw) const = 0;
  virtual PortPeer peer(int sw, int port) const = 0;
  virtual HostPort host(NodeId node) const = 0;

  /// Minimal output ports of `sw` toward `dst`, in deterministic
  /// preference order (see header comment). `out` is cleared first.
  virtual void candidates(int sw, NodeId dst, std::vector<int>& out) const = 0;

  /// First-candidate output port (the deterministic route's choice).
  int deterministic_port(int sw, NodeId dst) const;

  /// Switches on the deterministic route from the switch `sw` to `dst`'s
  /// host switch, counting `sw` itself (>= 1). Bounded by switch_count();
  /// throws std::logic_error if a (buggy) topology fails to converge.
  int hops_from(int sw, NodeId dst) const;

  /// Switches traversed src -> dst (>= 1; a star is always 1). Minimality
  /// of candidates makes this the hop count of *every* allowed route, so
  /// adaptive routing never changes it.
  int hop_count(NodeId src, NodeId dst) const;
};

/// Parsed topology spec: "name" or "name:k=v,k=v,..."; a bare value token
/// (no '=') is stored under the key "" — torus uses it for its dimensions
/// ("torus:4x4x4").
struct TopologySpec {
  std::string text;  ///< the original spec, canonical form
  std::string kind;
  std::map<std::string, std::string> params;

  static TopologySpec parse(const std::string& text);
  std::string get(const std::string& key, const std::string& dflt) const;
  /// Integer param with inclusive bounds; throws std::invalid_argument on
  /// malformed or out-of-range values (same contract as WorkloadParams).
  long get_int(const std::string& key, long dflt, long min, long max) const;
};

/// Parse `spec` and build the built-in topology it names (topologies.cpp:
/// star, fat-tree, torus, dragonfly) for a run that attaches `nodes`
/// endpoints. Throws std::invalid_argument on an unknown kind, a malformed
/// spec, or a topology with fewer than `nodes` host slots.
std::unique_ptr<Topology> make_topology(const std::string& spec, int nodes);

}  // namespace gputn::net
