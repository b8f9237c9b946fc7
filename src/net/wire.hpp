// The ideal (uncongested) wire model: the one formula for how long a lone
// message takes on an idle fabric (Table 2: 100 Gbps links, 100 ns link
// and switch latencies, MTU packets).
//
// net::Fabric builds the parameters from its config (Fabric::wire()), the
// flight recorder embeds them in its dump, and the analyzers
// (obs/critical.hpp's wire-vs-switch_queue blame split, obs/whatif.hpp's
// per-knob wire slices) evaluate ideal_wire on them, so measured and ideal
// wire time agree to the picosecond on an idle fabric by construction.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/units.hpp"

namespace gputn::net {

/// The link and switch parameters the ideal wire model reads. Plain
/// numbers, so a flight dump can carry them to an analyzer that has no
/// simulator.
struct WireParams {
  double bytes_per_sec = 0.0;
  std::int64_t link_latency_ps = 0;
  std::int64_t switch_latency_ps = 0;
  std::uint32_t mtu_bytes = 0;
  std::uint32_t header_bytes = 0;
  std::uint32_t per_packet_overhead = 0;

  bool operator==(const WireParams&) const = default;
};

/// One message's ideal wire latency, split into the parts the link
/// bandwidth, link latency and switch latency each own.
struct IdealWire {
  std::int64_t serialization = 0;
  std::int64_t link = 0;
  std::int64_t switching = 0;

  std::int64_t total() const { return serialization + link + switching; }
};

/// Ideal wire latency of a `payload_bytes` message crossing `hops` switches
/// of an idle fabric (1 on a star). The message's total serialization is
/// paid once, since its packets pipeline across hops; each switch re-adds
/// the lead packet's serialization; h switches mean h + 1 links and h
/// crossbar latencies. Degenerate parameters a hand-written dump may carry
/// (zero bandwidth, MTU or hops) count as free, unpacketized and one hop.
inline IdealWire ideal_wire(const WireParams& w, std::uint64_t payload_bytes,
                            std::uint32_t hops) {
  auto ser = [&](std::uint64_t bytes) -> std::int64_t {
    if (w.bytes_per_sec <= 0.0) return 0;
    return sim::Bandwidth::bytes_per_sec(w.bytes_per_sec).serialize(bytes);
  };
  std::int64_t h = hops > 0 ? static_cast<std::int64_t>(hops) : 1;
  std::uint64_t wire = w.header_bytes + payload_bytes;
  std::uint64_t mtu = w.mtu_bytes > 0 ? w.mtu_bytes : wire;
  if (mtu == 0) mtu = 1;
  std::uint64_t first_pkt = std::min(wire, mtu) + w.per_packet_overhead;
  std::uint64_t packets = (wire + mtu - 1) / mtu;
  std::uint64_t total_wire = wire + packets * w.per_packet_overhead;
  return IdealWire{ser(total_wire) + h * ser(first_pkt),
                   (h + 1) * w.link_latency_ps, h * w.switch_latency_ps};
}

}  // namespace gputn::net
