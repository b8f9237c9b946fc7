// Built-in routing policies (see routing_api.hpp for the contract).
#include "net/routing_api.hpp"

#include <stdexcept>

namespace gputn::net {

namespace {

class DeterministicRouter final : public Router {
 public:
  const std::string& name() const override {
    static const std::string n = "deterministic";
    return n;
  }
  int select(const Topology& topo, int sw, NodeId dst,
             const std::function<int(int)>& depth,
             std::vector<int>& scratch) const override {
    (void)depth;
    topo.candidates(sw, dst, scratch);
    if (scratch.empty()) {
      throw std::logic_error("router: no candidate port at switch " +
                             std::to_string(sw) + " for node " +
                             std::to_string(dst));
    }
    return scratch.front();
  }
};

class AdaptiveRouter final : public Router {
 public:
  const std::string& name() const override {
    static const std::string n = "adaptive";
    return n;
  }
  int select(const Topology& topo, int sw, NodeId dst,
             const std::function<int(int)>& depth,
             std::vector<int>& scratch) const override {
    topo.candidates(sw, dst, scratch);
    if (scratch.empty()) {
      throw std::logic_error("router: no candidate port at switch " +
                             std::to_string(sw) + " for node " +
                             std::to_string(dst));
    }
    // Strict < keeps the earliest-listed minimum on ties: the choice is a
    // pure function of the observed depths, so identical queue states give
    // identical routes (the adaptive determinism tests pin this).
    int best = scratch.front();
    int best_depth = depth(best);
    for (std::size_t i = 1; i < scratch.size(); ++i) {
      int d = depth(scratch[i]);
      if (d < best_depth) {
        best = scratch[i];
        best_depth = d;
      }
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<Router> make_router(const std::string& name) {
  if (name == "deterministic") return std::make_unique<DeterministicRouter>();
  if (name == "adaptive") return std::make_unique<AdaptiveRouter>();
  throw std::invalid_argument("unknown routing policy '" + name +
                              "' (adaptive|deterministic)");
}

}  // namespace gputn::net
