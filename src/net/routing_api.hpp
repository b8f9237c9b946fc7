// Router contract: pick one output port among a topology's candidates.
//
// The Topology (topology_api.hpp) supplies the legal minimal output ports
// for (switch, dst); the Router's only job is the choice among them.
// make_router builds the two built-in policies by name; both are
// deterministic functions of their inputs:
//
//   "deterministic"  always the first candidate. On a fat-tree the
//                    candidate rotation makes this d-mod-k ECMP up-routing;
//                    on a torus it is dimension-order routing.
//   "adaptive"       the candidate with the smallest local output-port
//                    depth (queued + credit-held packets), first-listed
//                    wins ties — so two runs observing identical queue
//                    states make identical choices, which is what keeps
//                    adaptive runs bit-identical across --jobs.
//
// Routers are stateless and shared by every switch of a fabric; the
// per-call scratch vector is caller-owned so the hot path never allocates.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/topology_api.hpp"

namespace gputn::net {

class Router {
 public:
  virtual ~Router() = default;
  Router() = default;
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  virtual const std::string& name() const = 0;

  /// Output-port choice for a packet to `dst` sitting at `sw`. `depth`
  /// reports the current depth of one of `sw`'s output ports (queued
  /// packets plus packets holding one of its credits); implementations may
  /// only call it for candidate ports. `scratch` is reused between calls.
  virtual int select(const Topology& topo, int sw, NodeId dst,
                     const std::function<int(int)>& depth,
                     std::vector<int>& scratch) const = 0;
};

/// The built-in policy named `name` ("deterministic" | "adaptive");
/// throws std::invalid_argument on an unknown name.
std::unique_ptr<Router> make_router(const std::string& name);

}  // namespace gputn::net
