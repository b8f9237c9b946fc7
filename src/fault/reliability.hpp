// End-to-end reliable delivery between NIC pairs.
//
// The Portals-4 NIC model assumed a lossless fabric; with fault injection
// (fault/fault.hpp) the fabric may drop, corrupt, or reorder messages, so
// each NIC runs this reliability layer between its protocol engine and the
// fabric:
//
//   TX  — every outbound message is stamped with a per-destination sequence
//         number, copied into a retransmit buffer, and retransmitted on
//         timeout with exponential backoff until cumulatively ACKed. A NACK
//         (corruption report) short-circuits the timeout.
//   RX  — per-source cursors deliver exactly once and in order: duplicates
//         are dropped (and re-ACKed, since the duplicate usually means our
//         ACK was lost), out-of-order arrivals are parked in a reorder
//         buffer until the gap fills, and corrupted messages are discarded
//         with a NACK. Every accepted or duplicate data message generates a
//         cumulative ACK.
//
// Exactly-once in-order delivery is what makes the upper layers fault-
// oblivious: a triggered put whose message is retransmitted still bumps the
// target's counting-receive counter exactly once, so trigger chains fire
// correctly under loss.
//
// When `enabled == false` the layer is a strict pass-through: no sequence
// numbers are stamped and no control messages are generated, so a lossless
// configuration has byte-for-byte identical wire traffic with or without
// this code (verified by tests/fault/reliability_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "net/fabric.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/units.hpp"

namespace gputn::fault {

struct ReliabilityConfig {
  bool enabled = false;
  /// Initial retransmit timeout for a zero-byte message. Must exceed the
  /// fabric RTT with queueing headroom; spurious retransmits are safe
  /// (duplicates are suppressed) but waste bandwidth.
  sim::Tick base_rto = sim::us(100);
  /// Per-payload-byte addition to a message's RTO, covering its own
  /// serialization time (80 ps/B at 100 Gbps) with ~12x margin for queueing.
  sim::Tick rto_per_byte = sim::ps(1000);
  double backoff = 2.0;       ///< RTO multiplier per retransmission
  sim::Tick max_rto = sim::ms(5);
  /// Give up (throw) after this many retransmissions of one message: under
  /// any sane loss rate this indicates a protocol bug, not bad luck.
  int max_retries = 64;
};

class ReliabilityLayer {
 public:
  /// `self` is the owning NIC's node id (ACK/NACK source address).
  /// `deliver_up` receives exactly-once, in-order data messages (it feeds
  /// the NIC's RX queue). `stats` is the owning NIC's registry; counters
  /// are published under "rel.".
  ReliabilityLayer(sim::Simulator& sim, net::Fabric& fabric, net::NodeId self,
                   ReliabilityConfig config, sim::StatRegistry& stats,
                   std::function<void(net::Message&&)> deliver_up);
  ReliabilityLayer(const ReliabilityLayer&) = delete;
  ReliabilityLayer& operator=(const ReliabilityLayer&) = delete;

  /// TX entry: stamp, buffer, and send (or pass through when disabled).
  void send(net::Message&& msg);

  /// RX entry: the NIC's MessageSink::deliver forwards everything here.
  /// Control traffic and protocol work are absorbed; data flows to
  /// `deliver_up` in order.
  void on_wire_receive(net::Message&& msg);

  bool enabled() const { return config_.enabled; }
  /// Messages currently awaiting acknowledgement (all destinations).
  std::size_t unacked() const;

  void set_trace(sim::TraceRecorder* trace, std::string lane) {
    trace_ = trace;
    trace_lane_ = std::move(lane);
  }

 private:
  struct Outstanding {
    net::Message msg;       ///< full copy for retransmission
    sim::Tick deadline = 0;
    sim::Tick rto = 0;
    int retries = 0;
  };
  struct PeerTx {
    std::uint64_t next_seq = 0;
    std::deque<Outstanding> window;  ///< FIFO by seq
    /// Bumped on every window-head change; pending timer callbacks carry
    /// the epoch they were armed under and no-op when stale.
    std::uint64_t timer_epoch = 0;
  };
  struct PeerRx {
    std::uint64_t expected = 0;  ///< next in-order seq to deliver
    std::map<std::uint64_t, net::Message> reorder;
  };

  sim::Tick rto_for(const net::Message& msg) const {
    return config_.base_rto +
           static_cast<sim::Tick>(msg.payload.size()) * config_.rto_per_byte;
  }

  void arm_timer(net::NodeId peer);
  void on_timeout(net::NodeId peer, std::uint64_t epoch);
  void retransmit_head(net::NodeId peer, PeerTx& tx, const char* why);
  void handle_ack(const net::Message& msg);
  void send_ack(net::NodeId dst, net::Ctrl ctrl, std::uint64_t cumulative);
  void deliver_in_order(PeerRx& rx, net::Message&& msg);

  enum Stat {
    kTxData, kRetransmits, kAcksTx, kNacksTx, kAcksRx, kNacksRx, kRxData,
    kCorruptDropped, kDupDropped, kReorderBuffered, kNumStats
  };
  /// The rel.* counter `stat`, looked up in *stats_ on its first use (a
  /// counter enters the export only once it counts something) and held
  /// after, so an event costs no string lookup.
  std::uint64_t& counter(Stat stat);

  sim::Simulator* sim_;
  net::Fabric* fabric_;
  net::NodeId self_;
  ReliabilityConfig config_;
  sim::StatRegistry* stats_;
  std::function<void(net::Message&&)> deliver_up_;
  std::map<net::NodeId, PeerTx> tx_;
  std::map<net::NodeId, PeerRx> rx_;
  sim::TraceRecorder* trace_ = nullptr;
  std::string trace_lane_;
  /// counter()'s handles, and rel.timeout_us's, resolved the same way.
  std::array<std::uint64_t*, kNumStats> counters_{};
  sim::Accumulator* timeout_us_ = nullptr;
};

}  // namespace gputn::fault
