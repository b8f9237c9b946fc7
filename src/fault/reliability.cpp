#include "fault/reliability.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace gputn::fault {

ReliabilityLayer::ReliabilityLayer(
    sim::Simulator& sim, net::Fabric& fabric, net::NodeId self,
    ReliabilityConfig config, sim::StatRegistry& stats,
    std::function<void(net::Message&&)> deliver_up)
    : sim_(&sim),
      fabric_(&fabric),
      self_(self),
      config_(config),
      stats_(&stats),
      deliver_up_(std::move(deliver_up)) {}

std::uint64_t& ReliabilityLayer::counter(Stat stat) {
  static constexpr const char* kName[] = {
      "rel.tx_data",     "rel.retransmits",     "rel.acks_tx",
      "rel.nacks_tx",    "rel.acks_rx",         "rel.nacks_rx",
      "rel.rx_data",     "rel.corrupt_dropped", "rel.dup_dropped",
      "rel.reorder_buffered"};
  static_assert(std::size(kName) == kNumStats);
  std::uint64_t*& c = counters_[stat];
  if (c == nullptr) c = &stats_->counter(kName[stat]);
  return *c;
}

std::size_t ReliabilityLayer::unacked() const {
  std::size_t n = 0;
  for (const auto& [peer, tx] : tx_) n += tx.window.size();
  return n;
}

// Copy `src` with its payload staged in a pooled buffer (assign into
// acquired capacity instead of a fresh allocation). `src` is left intact.
static net::Message pooled_copy(net::BufferPool& pool, net::Message& src) {
  std::vector<std::byte> payload = std::move(src.payload);
  net::Message copy = src;  // header-only copy: payload is moved out
  src.payload = std::move(payload);
  copy.payload = pool.acquire();
  copy.payload.assign(src.payload.begin(), src.payload.end());
  return copy;
}

void ReliabilityLayer::send(net::Message&& msg) {
  if (!config_.enabled) {
    fabric_->send(std::move(msg));
    return;
  }
  net::NodeId peer = msg.dst;
  PeerTx& tx = tx_[peer];
  msg.reliable = true;
  msg.seq = tx.next_seq++;
  ++counter(kTxData);

  Outstanding out;
  out.rto = rto_for(msg);
  out.deadline = sim_->now() + out.rto;
  // First wire hand-off is this very tick (fabric_->send below runs in the
  // same call). Stamped here, before the window copy, so retransmitted
  // copies still carry the original first-wire time.
  if (msg.t_wire_first < 0) msg.t_wire_first = sim_->now();
  // Full copy kept for retransmission, staged in a pooled buffer.
  out.msg = pooled_copy(fabric_->payload_pool(), msg);
  bool was_empty = tx.window.empty();
  tx.window.push_back(std::move(out));
  fabric_->send(std::move(msg));
  if (was_empty) arm_timer(peer);
}

void ReliabilityLayer::arm_timer(net::NodeId peer) {
  PeerTx& tx = tx_[peer];
  std::uint64_t epoch = ++tx.timer_epoch;  // invalidate any pending callback
  if (tx.window.empty()) return;
  sim::Tick delay = std::max<sim::Tick>(0, tx.window.front().deadline -
                                               sim_->now());
  sim_->schedule_in(delay,
                    [this, peer, epoch] { on_timeout(peer, epoch); });
}

void ReliabilityLayer::on_timeout(net::NodeId peer, std::uint64_t epoch) {
  auto it = tx_.find(peer);
  if (it == tx_.end() || it->second.timer_epoch != epoch ||
      it->second.window.empty()) {
    return;  // stale timer: the window advanced since it was armed
  }
  retransmit_head(peer, it->second, "timeout");
  arm_timer(peer);
}

void ReliabilityLayer::retransmit_head(net::NodeId peer, PeerTx& tx,
                                       const char* why) {
  Outstanding& head = tx.window.front();
  if (++head.retries > config_.max_retries) {
    throw std::runtime_error(
        "reliability: seq " + std::to_string(head.msg.seq) + " to node " +
        std::to_string(peer) + " exceeded max retries — protocol bug or "
        "pathological fault configuration");
  }
  ++counter(kRetransmits);
  // The window copy is the template for every resend: bumping it here means
  // the copy that finally lands reports how many wire attempts preceded it.
  ++head.msg.retransmits;
  if (timeout_us_ == nullptr) {
    timeout_us_ = &stats_->accumulator("rel.timeout_us");
  }
  timeout_us_->add(sim::to_us(head.rto));
  head.rto = std::min<sim::Tick>(
      static_cast<sim::Tick>(static_cast<double>(head.rto) * config_.backoff),
      config_.max_rto);
  head.deadline = sim_->now() + head.rto;
  if (trace_ != nullptr) {
    trace_->instant(trace_lane_,
                    std::string("retx:") + why + " seq=" +
                        std::to_string(head.msg.seq) + " dst=" +
                        std::to_string(peer),
                    "rel", sim_->now());
  }
  fabric_->send(pooled_copy(fabric_->payload_pool(), head.msg));
}

void ReliabilityLayer::send_ack(net::NodeId dst, net::Ctrl ctrl,
                                std::uint64_t cumulative) {
  ++counter(ctrl == net::Ctrl::kAck ? kAcksTx : kNacksTx);
  net::Message ack;
  ack.src = self_;
  ack.dst = dst;
  ack.ctrl = ctrl;
  ack.ack = cumulative;
  fabric_->send(std::move(ack));
}

void ReliabilityLayer::handle_ack(const net::Message& msg) {
  ++counter(msg.ctrl == net::Ctrl::kAck ? kAcksRx : kNacksRx);
  auto it = tx_.find(msg.src);
  if (it == tx_.end()) return;
  PeerTx& tx = it->second;
  bool progress = false;
  while (!tx.window.empty() && tx.window.front().msg.seq < msg.ack) {
    // Acknowledged: the retransmission copy is dead, recycle its buffer.
    fabric_->payload_pool().release(
        std::move(tx.window.front().msg.payload));
    tx.window.pop_front();
    progress = true;
  }
  if (msg.ctrl == net::Ctrl::kNack && !tx.window.empty()) {
    // The receiver discarded a corrupted message: resend the oldest
    // unacknowledged without waiting for its timeout.
    retransmit_head(msg.src, tx, "nack");
    arm_timer(msg.src);
  } else if (progress) {
    arm_timer(msg.src);  // re-arm (or disarm, if the window drained)
  }
}

void ReliabilityLayer::deliver_in_order(PeerRx& rx, net::Message&& msg) {
  deliver_up_(std::move(msg));
  ++rx.expected;
  // Drain any parked arrivals the gap-fill unblocked.
  for (auto it = rx.reorder.begin();
       it != rx.reorder.end() && it->first == rx.expected;
       it = rx.reorder.erase(it)) {
    deliver_up_(std::move(it->second));
    ++rx.expected;
  }
}

void ReliabilityLayer::on_wire_receive(net::Message&& msg) {
  if (!config_.enabled) {
    if (msg.corrupted) {
      // No reliability protocol to recover it: drop, as hardware drops a
      // frame with a bad checksum. The loss is visible in this counter.
      ++counter(kCorruptDropped);
      fabric_->payload_pool().release(std::move(msg.payload));
      return;
    }
    deliver_up_(std::move(msg));
    return;
  }
  if (msg.ctrl != net::Ctrl::kData) {
    handle_ack(msg);
    return;
  }
  if (!msg.reliable) {
    deliver_up_(std::move(msg));  // peer sent outside the protocol
    return;
  }
  PeerRx& rx = rx_[msg.src];
  if (msg.corrupted) {
    // A corrupted header cannot be trusted, so the NACK requests
    // retransmission from the receive cursor rather than naming msg.seq.
    ++counter(kCorruptDropped);
    fabric_->payload_pool().release(std::move(msg.payload));
    send_ack(msg.src, net::Ctrl::kNack, rx.expected);
    return;
  }
  if (msg.seq < rx.expected) {
    // Duplicate — our ACK was probably lost; repeat it.
    ++counter(kDupDropped);
    fabric_->payload_pool().release(std::move(msg.payload));
    send_ack(msg.src, net::Ctrl::kAck, rx.expected);
    return;
  }
  net::NodeId peer = msg.src;
  if (msg.seq == rx.expected) {
    ++counter(kRxData);
    deliver_in_order(rx, std::move(msg));
  } else {
    // Out of order (jitter reordering or a loss ahead of us): park it.
    // emplace keeps the first copy if a retransmission already landed here.
    ++counter(kReorderBuffered);
    rx.reorder.emplace(msg.seq, std::move(msg));
  }
  send_ack(peer, net::Ctrl::kAck, rx.expected);
}

}  // namespace gputn::fault
