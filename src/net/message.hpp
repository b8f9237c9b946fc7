// Wire message: what NICs exchange over the fabric.
//
// The network layer is deliberately dumb: it moves a fixed-size header plus
// an opaque payload from one node to another. The four 64-bit header words
// are interpreted by the NIC protocol layer (nic/nic.hpp); the fabric never
// looks at them. Keeping a concrete struct (rather than type erasure) keeps
// hot-path allocations to the payload vector only.
//
// The reliability sub-header (ctrl/seq/ack/reliable) belongs to the
// end-to-end retransmission protocol (fault/reliability.hpp). On a lossless
// fabric (reliability disabled) none of these fields are stamped and no
// ACK/NACK traffic exists; `corrupted` is set in flight by fault injection
// (net/link.hpp) and never by a sender.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gputn::net {

using NodeId = int;

/// Reliability-protocol message class. Data messages carry NIC payloads;
/// ACK/NACK are link-layer-free end-to-end control traffic between the two
/// NICs' reliability layers and are never seen by the NIC protocol layer.
enum class Ctrl : std::uint8_t {
  kData = 0,
  kAck = 1,   ///< cumulative acknowledgement: `ack` = next seq expected
  kNack = 2,  ///< corruption report: retransmit from `ack` immediately
};

struct Message {
  NodeId src = -1;
  NodeId dst = -1;
  std::uint32_t kind = 0;  ///< NIC-defined opcode.
  /// NIC-defined header words (e.g. remote address, completion flag
  /// address, match tag, byte count). Five words cover the largest control
  /// message (the rendezvous pull request).
  std::uint64_t h0 = 0, h1 = 0, h2 = 0, h3 = 0, h4 = 0;

  // -- Reliability sub-header (fault/reliability.hpp) ----------------------
  Ctrl ctrl = Ctrl::kData;
  /// True once the sender's reliability layer stamped `seq`; the receiver
  /// then runs duplicate suppression and in-order delivery for it.
  bool reliable = false;
  /// Set in flight when fault injection corrupts any packet of the message.
  bool corrupted = false;
  /// Per (src, dst) flow sequence number (valid when `reliable`).
  std::uint64_t seq = 0;
  /// Cumulative acknowledgement (valid for kAck / kNack).
  std::uint64_t ack = 0;

  // -- Observability sub-header (never interpreted by any component) -------
  /// Monotonic end-to-end flow id, stamped at first NIC tx (0 = unstamped).
  /// Retransmitted copies keep the original id so a trace groups every
  /// wire attempt of one logical message under one flow.
  std::uint64_t flow = 0;
  /// Logical-operation pairing tag (0 = unpaired). A request and its
  /// response carry the same tag, so the flight recorder can stitch the two
  /// one-way messages into one round-trip op (serve put request/response,
  /// get request/reply). Copied from the issuing command descriptor.
  std::uint64_t op_tag = 0;
  /// Tenant the operation belongs to (-1 = untenanted traffic).
  std::int32_t tenant = -1;
  /// Wire copies beyond the first for this logical message. Bumped on the
  /// retransmission-window copy before each resend, so the copy that is
  /// finally accepted reports how many extra wire attempts it cost.
  std::uint32_t retransmits = 0;
  /// Switches this message traverses src -> dst, stamped by the fabric at
  /// send from the topology's deterministic route (1 on a star). The
  /// flight recorder needs it to compute the per-hop ideal wire latency.
  std::uint32_t hops = 1;
  /// Per-stage timestamps in simulator ticks (picoseconds); -1 marks a
  /// stage that did not occur for this message. Pure bookkeeping: stamping
  /// never schedules events or adds delay, so latency accounting cannot
  /// perturb simulated time.
  std::int64_t t_trigger = -1;  ///< GPU trigger store reached the NIC
  std::int64_t t_post = -1;     ///< command posted to a software queue (Qp)
  std::int64_t t_ring = -1;     ///< doorbell rung (batch flush instant)
  std::int64_t t_cmd = -1;      ///< command entered the NIC command queue
  std::int64_t t_pop = -1;      ///< command left the queue (TX engine pop)
  std::int64_t t_admit = -1;    ///< token bucket admitted (== t_pop unpaced)
  std::int64_t t_wire = -1;     ///< handed to the fabric (fresh per retransmit)
  std::int64_t t_wire_first = -1;  ///< first fabric hand-off (kept on retx)
  std::int64_t t_switch = -1;   ///< first packet reached the switch
  std::int64_t t_rx = -1;       ///< last packet left the destination downlink

  std::vector<std::byte> payload;

  std::uint64_t payload_bytes() const { return payload.size(); }
};

/// Trace-event args JSON for one message's flow events (sim/trace.hpp);
/// shared by every emitter so the viewer shows a consistent detail pane.
inline std::string flow_args(const Message& m) {
  return "{\"flow\":" + std::to_string(m.flow) +
         ",\"src\":" + std::to_string(m.src) +
         ",\"dst\":" + std::to_string(m.dst) +
         ",\"kind\":" + std::to_string(m.kind) +
         ",\"bytes\":" + std::to_string(m.payload_bytes()) + "}";
}

/// Destination-side receiver; the NIC implements this.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void deliver(Message&& msg) = 0;
};

}  // namespace gputn::net
