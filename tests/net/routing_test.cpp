// Unit tests for the Router policies (net/routing_api.hpp).
//
// Routers see only (topology, switch, dst, depth-oracle), so these tests
// drive them with a real topology and a fake depth function — no simulator
// needed. The properties pinned here are exactly the ones the run-level
// determinism tests rely on: the deterministic policy ignores queue state
// entirely, and the adaptive policy is a pure function of the observed
// depths with first-listed tie-breaking.
#include "net/routing_api.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/topology_api.hpp"

namespace gputn::net {
namespace {

// RouterFactory names make_router, the factory function behind
// FabricConfig::routing.
TEST(RouterFactory, BuildsBothPoliciesAndRejectsUnknown) {
  EXPECT_EQ(make_router("deterministic")->name(), "deterministic");
  EXPECT_EQ(make_router("adaptive")->name(), "adaptive");
  try {
    make_router("chaotic");
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown routing policy 'chaotic' (adaptive|deterministic)");
  }
}

TEST(DeterministicRouter, AlwaysTakesTheFirstCandidateRegardlessOfDepth) {
  auto topo = make_topology("fat-tree:k=4", 16);
  auto router = make_router("deterministic");
  std::vector<int> scratch;
  // Edge switch 0 toward a cross-pod node: two up candidates exist.
  int expected = topo->deterministic_port(0, 8);
  // Pile fake congestion onto that very port — the policy must not care.
  auto congested = [&](int port) { return port == expected ? 1000 : 0; };
  EXPECT_EQ(router->select(*topo, 0, 8, congested, scratch), expected);
  auto idle = [](int) { return 0; };
  EXPECT_EQ(router->select(*topo, 0, 8, idle, scratch), expected);
}

TEST(AdaptiveRouter, PicksTheShallowestCandidate) {
  auto topo = make_topology("fat-tree:k=4", 16);
  auto router = make_router("adaptive");
  std::vector<int> scratch;
  std::vector<int> cand;
  topo->candidates(0, 8, cand);  // two up-ports at an edge switch
  ASSERT_EQ(cand.size(), 2u);
  // Make the first-listed candidate deep: adaptive must escape to the other.
  std::map<int, int> depth{{cand[0], 5}, {cand[1], 2}};
  auto oracle = [&](int port) { return depth.at(port); };
  EXPECT_EQ(router->select(*topo, 0, 8, oracle, scratch), cand[1]);
  // Flip the pressure: it follows.
  depth = {{cand[0], 1}, {cand[1], 9}};
  EXPECT_EQ(router->select(*topo, 0, 8, oracle, scratch), cand[0]);
}

TEST(AdaptiveRouter, TiesGoToTheFirstListedCandidate) {
  // Equal depths must reproduce the deterministic choice — this is what
  // keeps adaptive runs bit-identical across --jobs: identical queue
  // states always produce identical routes.
  auto topo = make_topology("fat-tree:k=4", 16);
  auto router = make_router("adaptive");
  std::vector<int> scratch;
  auto flat = [](int) { return 3; };
  EXPECT_EQ(router->select(*topo, 0, 8, flat, scratch),
            topo->deterministic_port(0, 8));
}

TEST(AdaptiveRouter, IsAPureFunctionOfTheObservedDepths) {
  auto topo = make_topology("torus:3x3", 9);
  auto router = make_router("adaptive");
  std::vector<int> scratch_a, scratch_b;
  auto oracle = [](int port) { return (port * 7) % 3; };
  for (int sw = 0; sw < topo->switch_count(); ++sw) {
    for (NodeId dst = 0; dst < topo->node_count(); ++dst) {
      EXPECT_EQ(router->select(*topo, sw, dst, oracle, scratch_a),
                router->select(*topo, sw, dst, oracle, scratch_b));
    }
  }
}

TEST(AdaptiveRouter, SingleCandidateTopologiesDegenerate) {
  // Star (and dragonfly minimal paths) offer exactly one candidate; the
  // adaptive policy must return it without consulting the oracle's value.
  auto topo = make_topology("star", 4);
  auto router = make_router("adaptive");
  std::vector<int> scratch;
  auto deep = [](int) { return 1 << 20; };
  EXPECT_EQ(router->select(*topo, 0, 3, deep, scratch), 3);
}

}  // namespace
}  // namespace gputn::net
