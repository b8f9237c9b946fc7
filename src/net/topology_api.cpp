#include "net/topology_api.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace gputn::net {

int Topology::deterministic_port(int sw, NodeId dst) const {
  std::vector<int> cand;
  candidates(sw, dst, cand);
  if (cand.empty()) {
    throw std::logic_error("topology '" + name() +
                           "': no route from switch " + std::to_string(sw) +
                           " to node " + std::to_string(dst));
  }
  return cand.front();
}

int Topology::hops_from(int sw, NodeId dst) const {
  int hops = 1;
  int at = sw;
  int target = host(dst).sw;
  // Candidate minimality bounds the walk by the switch count; exceeding it
  // means a topology emitted a non-minimal or cyclic candidate.
  while (at != target) {
    PortPeer p = peer(at, deterministic_port(at, dst));
    if (p.kind != PortPeer::Kind::kSwitch) {
      throw std::logic_error("topology '" + name() +
                             "': route left the switch graph before reaching "
                             "node " + std::to_string(dst));
    }
    at = p.index;
    if (++hops > switch_count()) {
      throw std::logic_error("topology '" + name() +
                             "': route to node " + std::to_string(dst) +
                             " did not converge");
    }
  }
  return hops;
}

int Topology::hop_count(NodeId src, NodeId dst) const {
  return hops_from(host(src).sw, dst);
}

TopologySpec TopologySpec::parse(const std::string& text) {
  if (text.empty()) {
    throw std::invalid_argument("topology spec is empty");
  }
  TopologySpec spec;
  spec.text = text;
  std::size_t colon = text.find(':');
  spec.kind = text.substr(0, colon);
  if (spec.kind.empty()) {
    throw std::invalid_argument("topology spec '" + text + "' has no kind");
  }
  if (colon == std::string::npos) return spec;
  std::string rest = text.substr(colon + 1);
  std::size_t start = 0;
  while (start <= rest.size()) {
    std::size_t comma = rest.find(',', start);
    std::string tok = rest.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (tok.empty()) {
      throw std::invalid_argument("topology spec '" + text +
                                  "' has an empty parameter");
    }
    std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      spec.params[""] = tok;  // bare value, e.g. the torus dimensions
    } else {
      std::string key = tok.substr(0, eq);
      std::string val = tok.substr(eq + 1);
      if (key.empty() || val.empty()) {
        throw std::invalid_argument("topology spec '" + text +
                                    "': malformed parameter '" + tok + "'");
      }
      spec.params[key] = val;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return spec;
}

std::string TopologySpec::get(const std::string& key,
                              const std::string& dflt) const {
  auto it = params.find(key);
  return it != params.end() ? it->second : dflt;
}

long TopologySpec::get_int(const std::string& key, long dflt, long min,
                           long max) const {
  long v = dflt;
  auto it = params.find(key);
  if (it != params.end()) {
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE) {
      throw std::invalid_argument("topology spec '" + text + "': parameter '" +
                                  key + "' expects an integer, got '" +
                                  it->second + "'");
    }
  }
  if (v < min || v > max) {
    throw std::invalid_argument(
        "topology spec '" + text + "': parameter '" + key + "' = " +
        std::to_string(v) + " out of range [" + std::to_string(min) + ", " +
        std::to_string(max) + "]");
  }
  return v;
}

}  // namespace gputn::net
