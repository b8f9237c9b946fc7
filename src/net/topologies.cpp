// Built-in topologies: star, fat-tree(k), 2D/3D torus, dragonfly.
//
// Each builder is a pure function of its spec: all wiring below is closed
// form (no tables proportional to nodes x switches), so even large
// instances cost only their id arithmetic. make_topology at the end maps a
// spec's kind to its builder. See topology_api.hpp for the determinism and
// minimality rules the candidate orders obey.
#include <stdexcept>

#include "net/topology_api.hpp"

namespace gputn::net {
namespace {

// ---- star -----------------------------------------------------------------
// The seed fabric: one switch, port i <-> node i. Every route is one hop.

class StarTopology final : public Topology {
 public:
  explicit StarTopology(int nodes) : nodes_(nodes > 0 ? nodes : 1) {}

  const std::string& name() const override {
    static const std::string n = "star";
    return n;
  }
  int node_count() const override { return nodes_; }
  int switch_count() const override { return 1; }
  int radix(int) const override { return nodes_; }
  PortPeer peer(int, int port) const override {
    return PortPeer{PortPeer::Kind::kNode, port, -1};
  }
  HostPort host(NodeId node) const override { return HostPort{0, node}; }
  void candidates(int, NodeId dst, std::vector<int>& out) const override {
    out.clear();
    out.push_back(dst);
  }

 private:
  int nodes_;
};

// ---- fat-tree(k) ----------------------------------------------------------
// Standard three-tier k-ary fat-tree: k pods of k/2 edge + k/2 aggregation
// switches, (k/2)^2 cores, k^3/4 hosts. Up-candidates rotate by the
// destination's leaf index, so the deterministic (first-candidate) route is
// d-mod-k ECMP: flows to different leaves spread across up-links while one
// destination always uses one path.

class FatTreeTopology final : public Topology {
 public:
  explicit FatTreeTopology(int k, std::string name)
      : k_(k), half_(k / 2), name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  int node_count() const override { return k_ * half_ * half_; }
  int switch_count() const override { return k_ * k_ + half_ * half_; }
  int radix(int) const override { return k_; }

  PortPeer peer(int sw, int port) const override {
    const int edges = k_ * half_;  // then aggs, then cores
    if (sw < edges) {             // edge(pod, e)
      int pod = sw / half_, e = sw % half_;
      if (port < half_) {  // host leaf
        return PortPeer{PortPeer::Kind::kNode,
                        pod * half_ * half_ + e * half_ + port, -1};
      }
      int u = port - half_;  // up to agg(pod, u), its down port e
      return PortPeer{PortPeer::Kind::kSwitch, edges + pod * half_ + u, e};
    }
    if (sw < 2 * edges) {  // agg(pod, a)
      int pod = (sw - edges) / half_, a = (sw - edges) % half_;
      if (port < half_) {  // down to edge(pod, port), its up port a
        return PortPeer{PortPeer::Kind::kSwitch, pod * half_ + port,
                        half_ + a};
      }
      int u = port - half_;  // up to core a*half+u, its port pod
      return PortPeer{PortPeer::Kind::kSwitch, 2 * edges + a * half_ + u,
                      pod};
    }
    // core c: port p goes down to agg(p, c / half), its up port c % half.
    int c = sw - 2 * edges;
    return PortPeer{PortPeer::Kind::kSwitch, edges + port * half_ + c / half_,
                    half_ + c % half_};
  }

  HostPort host(NodeId node) const override {
    int pod = node / (half_ * half_);
    int e = (node / half_) % half_;
    return HostPort{pod * half_ + e, node % half_};
  }

  void candidates(int sw, NodeId dst, std::vector<int>& out) const override {
    out.clear();
    const int edges = k_ * half_;
    int dpod = dst / (half_ * half_);
    int dedge = (dst / half_) % half_;
    int dleaf = dst % half_;
    if (sw < edges) {  // edge
      int pod = sw / half_, e = sw % half_;
      if (pod == dpod && e == dedge) {
        out.push_back(dleaf);
        return;
      }
      push_rotated_ups(out, dst);
      return;
    }
    if (sw < 2 * edges) {  // agg
      int pod = (sw - edges) / half_;
      if (pod == dpod) {
        out.push_back(dedge);
        return;
      }
      push_rotated_ups(out, dst);
      return;
    }
    out.push_back(dpod);  // core: one down port per pod
  }

 private:
  /// Up-ports [half, k) starting at the d-mod-k choice for `dst`.
  void push_rotated_ups(std::vector<int>& out, NodeId dst) const {
    int start = dst % half_;
    for (int j = 0; j < half_; ++j) {
      out.push_back(half_ + (start + j) % half_);
    }
  }

  int k_, half_;
  std::string name_;
};

std::unique_ptr<Topology> make_fat_tree(const TopologySpec& spec) {
  int k = static_cast<int>(spec.get_int("k", 4, 2, 64));
  if (k % 2 != 0) {
    throw std::invalid_argument("topology spec '" + spec.text +
                                "': fat-tree k must be even");
  }
  return std::make_unique<FatTreeTopology>(k, "fat-tree:k=" +
                                                  std::to_string(k));
}

// ---- torus (2D/3D) --------------------------------------------------------
// One host per switch; each switch has a +/- port per dimension with wrap
// links. The deterministic candidate is dimension-order routing (lowest
// differing dimension, shortest wrap direction, ties broken toward +);
// the remaining differing dimensions follow as adaptive alternatives —
// every one is minimal, so escaping a hot dimension never lengthens the
// path.

class TorusTopology final : public Topology {
 public:
  explicit TorusTopology(std::vector<int> dims, std::string name)
      : dims_(std::move(dims)), name_(std::move(name)) {
    total_ = 1;
    for (int d : dims_) total_ *= d;
  }

  const std::string& name() const override { return name_; }
  int node_count() const override { return total_; }
  int switch_count() const override { return total_; }
  int radix(int) const override {
    return 1 + 2 * static_cast<int>(dims_.size());
  }

  PortPeer peer(int sw, int port) const override {
    if (port == 0) return PortPeer{PortPeer::Kind::kNode, sw, -1};
    int dim = (port - 1) / 2;
    bool plus = ((port - 1) % 2) == 0;
    int coord = coord_of(sw, dim);
    int d = dims_[dim];
    int next = plus ? (coord + 1) % d : (coord + d - 1) % d;
    int peer_sw = with_coord(sw, dim, next);
    // A +step lands on the peer's - port and vice versa.
    return PortPeer{PortPeer::Kind::kSwitch, peer_sw,
                    plus ? 2 + 2 * dim : 1 + 2 * dim};
  }

  HostPort host(NodeId node) const override { return HostPort{node, 0}; }

  void candidates(int sw, NodeId dst, std::vector<int>& out) const override {
    out.clear();
    if (sw == dst) {
      out.push_back(0);
      return;
    }
    for (std::size_t dim = 0; dim < dims_.size(); ++dim) {
      int sc = coord_of(sw, static_cast<int>(dim));
      int dc = coord_of(dst, static_cast<int>(dim));
      if (sc == dc) continue;
      int d = dims_[dim];
      int plus_dist = (dc - sc + d) % d;
      int minus_dist = (sc - dc + d) % d;
      bool plus = plus_dist <= minus_dist;
      out.push_back(plus ? 1 + 2 * static_cast<int>(dim)
                         : 2 + 2 * static_cast<int>(dim));
    }
  }

 private:
  int coord_of(int sw, int dim) const {
    for (int i = 0; i < dim; ++i) sw /= dims_[i];
    return sw % dims_[dim];
  }
  int with_coord(int sw, int dim, int coord) const {
    int stride = 1;
    for (int i = 0; i < dim; ++i) stride *= dims_[i];
    int old = coord_of(sw, dim);
    return sw + (coord - old) * stride;
  }

  std::vector<int> dims_;
  int total_;
  std::string name_;
};

std::unique_ptr<Topology> make_torus(const TopologySpec& spec) {
  std::string dims_text = spec.get("", spec.get("dims", ""));
  if (dims_text.empty()) {
    throw std::invalid_argument("topology spec '" + spec.text +
                                "': torus needs dimensions, e.g. torus:4x4x4");
  }
  std::vector<int> dims;
  std::size_t start = 0;
  while (start <= dims_text.size()) {
    std::size_t x = dims_text.find('x', start);
    std::string tok = dims_text.substr(
        start, x == std::string::npos ? std::string::npos : x - start);
    char* end = nullptr;
    long v = std::strtol(tok.c_str(), &end, 10);
    if (tok.empty() || end == tok.c_str() || *end != '\0' || v < 2 ||
        v > 1024) {
      throw std::invalid_argument("topology spec '" + spec.text +
                                  "': bad torus dimension '" + tok +
                                  "' (each must be an integer in [2, 1024])");
    }
    dims.push_back(static_cast<int>(v));
    if (x == std::string::npos) break;
    start = x + 1;
  }
  if (dims.size() < 2 || dims.size() > 3) {
    throw std::invalid_argument("topology spec '" + spec.text +
                                "': torus supports 2 or 3 dimensions");
  }
  long total = 1;
  for (int d : dims) total *= d;
  if (total > (1L << 20)) {
    throw std::invalid_argument("topology spec '" + spec.text +
                                "': torus larger than 2^20 switches");
  }
  return std::make_unique<TorusTopology>(std::move(dims),
                                         "torus:" + dims_text);
}

// ---- dragonfly(a, h, p) ---------------------------------------------------
// Canonical balanced dragonfly: g = a*h + 1 groups of `a` routers; each
// router serves `p` hosts, connects to the a-1 other routers of its group
// (full mesh) and owns `h` global links. Global slot q = r*h + j of group G
// reaches group (q < G ? q : q+1), so every group pair is joined by exactly
// one global link. Minimal routing (<= 4 switch hops: router, gateway,
// remote gateway, destination router) has a unique path, so the adaptive
// policy degenerates to the deterministic one here — non-minimal Valiant
// escape paths are future work.

class DragonflyTopology final : public Topology {
 public:
  DragonflyTopology(int a, int h, int p, std::string name)
      : a_(a), h_(h), p_(p), groups_(a * h + 1), name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  int node_count() const override { return groups_ * a_ * p_; }
  int switch_count() const override { return groups_ * a_; }
  int radix(int) const override { return p_ + (a_ - 1) + h_; }

  PortPeer peer(int sw, int port) const override {
    int g = sw / a_, r = sw % a_;
    if (port < p_) {
      return PortPeer{PortPeer::Kind::kNode, sw * p_ + port, -1};
    }
    if (port < p_ + a_ - 1) {  // local full mesh
      int j = port - p_;
      int rp = j < r ? j : j + 1;
      return PortPeer{PortPeer::Kind::kSwitch, g * a_ + rp,
                      p_ + (r < rp ? r : r - 1)};
    }
    // Global link: slot q of this group to its paired group.
    int q = r * h_ + (port - p_ - (a_ - 1));
    int v = q < g ? q : q + 1;
    int qp = g < v ? g : g - 1;  // the slot in v that points back at g
    return PortPeer{PortPeer::Kind::kSwitch, v * a_ + qp / h_,
                    p_ + (a_ - 1) + qp % h_};
  }

  HostPort host(NodeId node) const override {
    return HostPort{node / p_, node % p_};
  }

  void candidates(int sw, NodeId dst, std::vector<int>& out) const override {
    out.clear();
    int g = sw / a_, r = sw % a_;
    int dsw = dst / p_;
    int dg = dsw / a_, dr = dsw % a_;
    if (g == dg) {
      if (r == dr) {
        out.push_back(dst % p_);
      } else {
        out.push_back(local_port(r, dr));
      }
      return;
    }
    int q = dg < g ? dg : dg - 1;  // this group's slot toward dg
    int gw = q / h_;
    if (r == gw) {
      out.push_back(p_ + (a_ - 1) + q % h_);
    } else {
      out.push_back(local_port(r, gw));
    }
  }

 private:
  int local_port(int r, int rp) const { return p_ + (rp < r ? rp : rp - 1); }

  int a_, h_, p_, groups_;
  std::string name_;
};

std::unique_ptr<Topology> make_dragonfly(const TopologySpec& spec) {
  int a = static_cast<int>(spec.get_int("a", 4, 1, 64));
  int h = static_cast<int>(spec.get_int("h", 2, 1, 64));
  int p = static_cast<int>(spec.get_int("p", h, 1, 64));
  long hosts = static_cast<long>(a * h + 1) * a * p;
  if (hosts > (1L << 22)) {
    throw std::invalid_argument("topology spec '" + spec.text +
                                "': dragonfly larger than 2^22 hosts");
  }
  return std::make_unique<DragonflyTopology>(
      a, h, p,
      "dragonfly:a=" + std::to_string(a) + ",h=" + std::to_string(h) +
          ",p=" + std::to_string(p));
}

}  // namespace

std::unique_ptr<Topology> make_topology(const std::string& spec, int nodes) {
  TopologySpec parsed = TopologySpec::parse(spec);
  std::unique_ptr<Topology> topo;
  if (parsed.kind == "star") {
    topo = std::make_unique<StarTopology>(nodes);
  } else if (parsed.kind == "fat-tree") {
    topo = make_fat_tree(parsed);
  } else if (parsed.kind == "torus") {
    topo = make_torus(parsed);
  } else if (parsed.kind == "dragonfly") {
    topo = make_dragonfly(parsed);
  } else {
    throw std::invalid_argument("unknown topology '" + parsed.kind +
                                "' (dragonfly|fat-tree|star|torus)");
  }
  if (topo->node_count() < nodes) {
    throw std::invalid_argument(
        "topology '" + spec + "' has capacity for " +
        std::to_string(topo->node_count()) + " nodes, run needs " +
        std::to_string(nodes));
  }
  return topo;
}

}  // namespace gputn::net
