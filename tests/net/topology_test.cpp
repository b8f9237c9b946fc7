// Contract tests for the pluggable topologies (net/topology_api.hpp).
//
// Every built-in topology must satisfy the same structural invariants —
// symmetric wiring, bijective host attachment, minimal candidates — so the
// bulk of this file is one generic sweep over all of them; the per-topology
// tests then pin the properties that make each one itself (star hop counts,
// fat-tree ECMP rotation, torus dimension-order routing, dragonfly's
// bounded diameter).
#include "net/topology_api.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace gputn::net {
namespace {

std::unique_ptr<Topology> make(const std::string& spec, int nodes = 2) {
  return make_topology(spec, nodes);
}

const char* kAllSpecs[] = {
    "star",
    "fat-tree:k=4",
    "torus:3x4",
    "torus:2x2x2",
    "dragonfly:a=2,h=2,p=2",
};

TEST(TopologyContract, WiringIsSymmetric) {
  for (const char* spec : kAllSpecs) {
    auto topo = make(spec);
    for (int sw = 0; sw < topo->switch_count(); ++sw) {
      for (int port = 0; port < topo->radix(sw); ++port) {
        PortPeer p = topo->peer(sw, port);
        if (p.kind == PortPeer::Kind::kSwitch) {
          PortPeer back = topo->peer(p.index, p.port);
          EXPECT_EQ(back.kind, PortPeer::Kind::kSwitch) << spec;
          EXPECT_EQ(back.index, sw) << spec << " sw" << sw << " port" << port;
          EXPECT_EQ(back.port, port) << spec << " sw" << sw << " port" << port;
        } else if (p.kind == PortPeer::Kind::kNode) {
          HostPort h = topo->host(p.index);
          EXPECT_EQ(h.sw, sw) << spec;
          EXPECT_EQ(h.port, port) << spec;
        }
      }
    }
  }
}

TEST(TopologyContract, HostAttachmentIsBijective) {
  for (const char* spec : kAllSpecs) {
    auto topo = make(spec);
    std::set<std::pair<int, int>> seen;
    for (NodeId n = 0; n < topo->node_count(); ++n) {
      HostPort h = topo->host(n);
      ASSERT_GE(h.sw, 0) << spec;
      ASSERT_LT(h.sw, topo->switch_count()) << spec;
      ASSERT_GE(h.port, 0) << spec;
      ASSERT_LT(h.port, topo->radix(h.sw)) << spec;
      EXPECT_TRUE(seen.insert({h.sw, h.port}).second)
          << spec << ": two nodes on one port";
      PortPeer p = topo->peer(h.sw, h.port);
      EXPECT_EQ(p.kind, PortPeer::Kind::kNode) << spec;
      EXPECT_EQ(p.index, n) << spec;
    }
  }
}

TEST(TopologyContract, EveryCandidateIsMinimal) {
  // Each candidate port must strictly decrease the remaining switch-hop
  // distance — the property that makes any router choice loop-free and
  // keeps hop_count() route-independent.
  for (const char* spec : kAllSpecs) {
    auto topo = make(spec);
    std::vector<int> cand;
    for (int sw = 0; sw < topo->switch_count(); ++sw) {
      for (NodeId dst = 0; dst < topo->node_count(); ++dst) {
        int here = topo->hops_from(sw, dst);
        topo->candidates(sw, dst, cand);
        ASSERT_FALSE(cand.empty()) << spec;
        for (int c : cand) {
          ASSERT_GE(c, 0) << spec;
          ASSERT_LT(c, topo->radix(sw)) << spec;
          PortPeer p = topo->peer(sw, c);
          if (p.kind == PortPeer::Kind::kNode) {
            EXPECT_EQ(p.index, dst) << spec;
            EXPECT_EQ(here, 1) << spec;
          } else {
            ASSERT_EQ(p.kind, PortPeer::Kind::kSwitch) << spec;
            EXPECT_EQ(topo->hops_from(p.index, dst), here - 1)
                << spec << " sw" << sw << " -> " << dst << " via port " << c;
          }
        }
      }
    }
  }
}

TEST(TopologyContract, HopCountIsSymmetric) {
  for (const char* spec : kAllSpecs) {
    auto topo = make(spec);
    for (NodeId a = 0; a < topo->node_count(); ++a) {
      for (NodeId b = 0; b < topo->node_count(); ++b) {
        EXPECT_EQ(topo->hop_count(a, b), topo->hop_count(b, a)) << spec;
      }
    }
  }
}

TEST(Star, EveryRouteIsOneHop) {
  auto topo = make("star", 8);
  EXPECT_EQ(topo->switch_count(), 1);
  for (NodeId a = 0; a < 8; ++a) {
    for (NodeId b = 0; b < 8; ++b) {
      EXPECT_EQ(topo->hop_count(a, b), 1);
    }
  }
}

TEST(FatTree, HopCountsAreOneThreeFive) {
  // k=4: pods of 2 edge + 2 agg switches, 2 hosts per edge, 16 hosts.
  auto topo = make("fat-tree:k=4");
  EXPECT_EQ(topo->node_count(), 16);
  EXPECT_EQ(topo->switch_count(), 20);
  EXPECT_EQ(topo->hop_count(0, 1), 1);   // same edge switch
  EXPECT_EQ(topo->hop_count(0, 2), 3);   // same pod, different edge
  EXPECT_EQ(topo->hop_count(0, 15), 5);  // cross-pod, via a core
}

TEST(FatTree, UpCandidatesRotateByDestination) {
  // d-mod-k ECMP: at an edge switch, the first up-candidate (the
  // deterministic route) depends on the destination's leaf index, so
  // distinct destinations spread across up-links.
  auto topo = make("fat-tree:k=4");
  // Node 8 (pod 2, leaf 0) and node 9 (pod 2, leaf 1) from edge switch 0.
  int p8 = topo->deterministic_port(0, 8);
  int p9 = topo->deterministic_port(0, 9);
  EXPECT_NE(p8, p9);
  EXPECT_GE(p8, 2);  // both are up-ports [k/2, k)
  EXPECT_GE(p9, 2);
  // And every up-port is offered as an adaptive alternative.
  std::vector<int> cand;
  topo->candidates(0, 8, cand);
  EXPECT_EQ(cand.size(), 2u);
}

TEST(Torus, HopCountIsWrapDistancePlusOne) {
  auto topo = make("torus:3x4");
  // Node ids are x + 3*y. hops = manhattan distance with wraparound + 1
  // (the destination's own switch counts).
  auto hops = [&](int ax, int ay, int bx, int by) {
    int dx = std::min((bx - ax + 3) % 3, (ax - bx + 3) % 3);
    int dy = std::min((by - ay + 4) % 4, (ay - by + 4) % 4);
    return dx + dy + 1;
  };
  for (int ax = 0; ax < 3; ++ax) {
    for (int ay = 0; ay < 4; ++ay) {
      for (int bx = 0; bx < 3; ++bx) {
        for (int by = 0; by < 4; ++by) {
          EXPECT_EQ(topo->hop_count(ax + 3 * ay, bx + 3 * by),
                    hops(ax, ay, bx, by))
              << ax << "," << ay << " -> " << bx << "," << by;
        }
      }
    }
  }
}

TEST(Torus, DeterministicRouteIsDimensionOrder) {
  // From (0,0) to (2,2) on 3x3: dim 0 first (wrap via -1 is shorter than
  // +2), then dim 1. Walk the deterministic route and record the dimension
  // of every inter-switch hop.
  auto topo = make("torus:3x3");
  NodeId dst = 2 + 3 * 2;  // (2,2) = 8
  int sw = topo->host(0).sw;
  std::vector<int> dims_taken;
  while (true) {
    int port = topo->deterministic_port(sw, dst);
    PortPeer p = topo->peer(sw, port);
    if (p.kind == PortPeer::Kind::kNode) break;
    dims_taken.push_back((port - 1) / 2);
    sw = p.index;
  }
  ASSERT_EQ(dims_taken.size(), 2u);  // one wrap step per dimension
  EXPECT_EQ(dims_taken[0], 0);       // x fully resolved before y
  EXPECT_EQ(dims_taken[1], 1);
}

TEST(Torus, AdaptiveCandidatesCoverEveryUnresolvedDimension) {
  auto topo = make("torus:3x3");
  std::vector<int> cand;
  // (0,0) -> (1,1): both dimensions differ, both +1 steps.
  topo->candidates(0, 1 + 3 * 1, cand);
  ASSERT_EQ(cand.size(), 2u);
  EXPECT_EQ(cand[0], 1);  // dim 0, + direction
  EXPECT_EQ(cand[1], 3);  // dim 1, + direction
}

TEST(Dragonfly, DiameterIsFourSwitches) {
  auto topo = make("dragonfly:a=2,h=2,p=2");
  EXPECT_EQ(topo->node_count(), 20);  // 5 groups x 2 routers x 2 hosts
  EXPECT_EQ(topo->switch_count(), 10);
  int max_hops = 0;
  for (NodeId a = 0; a < topo->node_count(); ++a) {
    for (NodeId b = 0; b < topo->node_count(); ++b) {
      max_hops = std::max(max_hops, topo->hop_count(a, b));
    }
  }
  EXPECT_LE(max_hops, 4);  // router, gateway, remote gateway, dest router
  EXPECT_GE(max_hops, 3);  // some pair genuinely crosses groups indirectly
}

// The suites named TopologyFactory exercise make_topology, the factory
// function behind FabricConfig::topology.
TEST(TopologyFactory, RejectsUnknownKindsAndBadSpecs) {
  EXPECT_THROW(make("fat-tree:k=3"), std::invalid_argument);   // odd k
  EXPECT_THROW(make("fat-tree:k=zap"), std::invalid_argument);
  EXPECT_THROW(make("torus"), std::invalid_argument);          // no dims
  EXPECT_THROW(make("torus:4"), std::invalid_argument);        // 1-D
  EXPECT_THROW(make("torus:4x0"), std::invalid_argument);
  EXPECT_THROW(make(""), std::invalid_argument);
  try {
    make("moebius");
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown topology 'moebius' (dragonfly|fat-tree|star|torus)");
  }
}

TEST(TopologyFactory, RejectsInsufficientCapacity) {
  // fat-tree:k=2 hosts exactly 2 nodes; torus:2x2 hosts 4.
  EXPECT_THROW(make("fat-tree:k=2", 4), std::invalid_argument);
  EXPECT_THROW(make("torus:2x2", 5), std::invalid_argument);
  EXPECT_NO_THROW(make("torus:2x2", 4));
  // Partial attachment is fine: unused host slots stay idle.
  EXPECT_NO_THROW(make("fat-tree:k=8", 3));
}

TEST(TopologySpec, ParsesParamsAndBareTokens) {
  TopologySpec s = TopologySpec::parse("fat-tree:k=8");
  EXPECT_EQ(s.kind, "fat-tree");
  EXPECT_EQ(s.get_int("k", 0, 0, 100), 8);
  TopologySpec t = TopologySpec::parse("torus:4x4x4");
  EXPECT_EQ(t.kind, "torus");
  EXPECT_EQ(t.get("", ""), "4x4x4");  // bare token lands under ""
  TopologySpec d = TopologySpec::parse("dragonfly:a=4,h=2,p=2");
  EXPECT_EQ(d.get_int("a", 0, 0, 100), 4);
  EXPECT_EQ(d.get_int("h", 0, 0, 100), 2);
  EXPECT_EQ(d.get_int("p", 0, 0, 100), 2);
}

TEST(TopologyFactory, NamesRoundTripThroughTheFactory) {
  // name() is the canonical spec: building from it again yields the same
  // shape (what describe() prints must be reproducible).
  for (const char* spec : kAllSpecs) {
    auto a = make(spec);
    auto b = make(a->name(), 2);
    EXPECT_EQ(b->name(), a->name());
    EXPECT_EQ(b->node_count(), a->node_count());
    EXPECT_EQ(b->switch_count(), a->switch_count());
  }
}

}  // namespace
}  // namespace gputn::net
