#include "nic/nic.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace gputn::nic {

Nic::Nic(sim::Simulator& sim, mem::Memory& memory, net::Fabric& fabric,
         NicConfig config)
    : sim_(&sim),
      mem_(&memory),
      fabric_(&fabric),
      config_(config),
      node_id_(fabric.add_node(this)),
      cmd_queue_(sim, sim::method<&Nic::tx_start>(this)),
      rx_queue_(sim, sim::method<&Nic::rx_start>(this)),
      tx_dma_(sim, memory, config.dma_bandwidth, config.dma_startup),
      rx_dma_(sim, memory, config.dma_bandwidth, config.dma_startup),
      reliability_(sim, fabric, node_id_, config.reliability, stats_,
                   [this](net::Message&& m) { rx_queue_.push(std::move(m)); }) {
  if (config_.rate_limit.ops_per_sec > 0.0) {
    rate_ = std::make_unique<TokenBucket>(config_.rate_limit);
  }
}

void Nic::ring_doorbell(Command cmd) {
  // A direct ring is post and flush in one: posted == rung.
  ring_doorbell(std::move(cmd), sim_->now());
}

void Nic::ring_doorbell(Command cmd, sim::Tick posted) {
  // Stage the command and schedule a [this]-only event rather than moving
  // the (large) Command variant through the queue: the doorbell latency is
  // constant, so pop-front order equals ring order, and the event always
  // fits EventFn's inline storage.
  QueuedCmd qc;
  qc.cmd = std::move(cmd);
  qc.posted = posted;
  qc.rung = sim_->now();
  doorbell_staging_.push_back(std::move(qc));
  sim_->schedule_in(config_.doorbell_latency, [this] {
    cmd_util_.enqueue(sim_->now());
    QueuedCmd front = std::move(doorbell_staging_.front());
    doorbell_staging_.pop_front();
    front.enqueued = sim_->now();
    cmd_queue_.push(std::move(front));
  });
}

void Nic::enqueue_internal(Command cmd, sim::Tick trigger_at,
                           bool trigger_mmio) {
  cmd_util_.enqueue(sim_->now());
  cmd_queue_.push(
      QueuedCmd{std::move(cmd), sim_->now(), trigger_at, trigger_mmio});
}

void Nic::stamp_tx(net::Message& msg, sim::Tick t_cmd, sim::Tick t_trigger,
                   bool trigger_mmio) {
  msg.flow = fabric_->next_flow(node_id_);
  msg.t_cmd = t_cmd;
  msg.t_trigger = t_trigger;
  if (trace_ == nullptr) return;
  std::string args = net::flow_args(msg);
  if (msg.t_post >= 0 && msg.t_ring > msg.t_post) {
    // Satellite view of Qp batching: how long this op waited in the
    // software queue before its batch's doorbell was rung.
    trace_->span(trace_lane_, "qp:batch-wait", "nic", msg.t_post, msg.t_ring,
                 args);
  }
  if (t_trigger >= 0 && trigger_mmio && !gpu_lane_.empty()) {
    // Triggered by a GPU store: the flow starts inside the kernel's span
    // on the gpu lane, steps through the trigger unit's match span, then
    // through this NIC's tx span.
    trace_->flow_begin(gpu_lane_, "msg", "flow", t_trigger, msg.flow, args);
    if (!trig_lane_.empty() && t_cmd >= 0) {
      trace_->flow_step(trig_lane_, "msg", "flow", t_cmd, msg.flow, args);
    }
    trace_->flow_step(trace_lane_, "msg", "flow", sim_->now(), msg.flow,
                      args);
  } else if (t_trigger >= 0 && !trig_lane_.empty()) {
    // Fired by a counting-receive event: causality starts at the trigger
    // unit, not the GPU.
    trace_->flow_begin(trig_lane_, "msg", "flow", t_cmd, msg.flow, args);
    trace_->flow_step(trace_lane_, "msg", "flow", sim_->now(), msg.flow,
                      args);
  } else {
    trace_->flow_begin(trace_lane_, "msg", "flow", sim_->now(), msg.flow,
                       args);
  }
}

void Nic::stamp_tx(net::Message& msg, const QueuedCmd& qc) {
  msg.t_post = qc.posted;
  msg.t_ring = qc.rung;
  msg.t_pop = qc.popped;
  msg.t_admit = qc.admitted;
  stamp_tx(msg, qc.enqueued, qc.trigger, qc.trigger_mmio);
}

Nic::RxStamps Nic::RxStamps::from(const net::Message& m) {
  RxStamps s;
  s.leg.flow = m.flow;
  s.leg.src = m.src;
  s.leg.dst = m.dst;
  s.leg.kind = m.kind;
  s.leg.bytes = m.payload_bytes();
  s.leg.retransmits = m.retransmits;
  s.leg.hops = m.hops;
  s.leg.t_trigger = m.t_trigger;
  s.leg.t_post = m.t_post;
  s.leg.t_ring = m.t_ring;
  s.leg.t_cmd = m.t_cmd;
  s.leg.t_pop = m.t_pop;
  s.leg.t_admit = m.t_admit;
  s.leg.t_wire_first = m.t_wire_first;
  s.leg.t_wire = m.t_wire;
  s.leg.t_switch = m.t_switch;
  s.leg.t_rx = m.t_rx;
  s.op_tag = m.op_tag;
  s.tenant = m.tenant;
  return s;
}

void Nic::record_delivery(const RxStamps& s) {
  sim::Tick now = sim_->now();
  const obs::FlightLeg& l = s.leg;
  // Stage deltas in nanoseconds, pow2-bucketed. Recording is pure
  // bookkeeping (no simulator interaction), so it cannot perturb timing;
  // it is always on, which is what lets every run report a Figure-8-style
  // latency decomposition for free.
  enum Stage { kTriggerToFire, kTxQueue, kWire, kRxToDeposit, kEndToEnd };
  static constexpr const char* kName[] = {
      "lat.trigger_to_fire", "lat.tx_queue", "lat.wire", "lat.rx_to_deposit",
      "lat.end_to_end"};
  static_assert(std::size(kName) == std::tuple_size_v<decltype(lat_)>);
  auto rec = [this](Stage stage, sim::Tick from, sim::Tick to) {
    if (from < 0 || to < from) return;
    sim::Histogram*& h = lat_[stage];
    if (h == nullptr) h = &stats_.histogram(kName[stage]);
    h->add(static_cast<std::uint64_t>((to - from) / 1000));
  };
  if (l.t_trigger >= 0) rec(kTriggerToFire, l.t_trigger, l.t_cmd);
  rec(kTxQueue, l.t_cmd, l.t_wire);
  rec(kWire, l.t_wire, l.t_rx);
  rec(kRxToDeposit, l.t_rx, now);
  rec(kEndToEnd, l.t_trigger >= 0 ? l.t_trigger : l.t_cmd, now);
  if (trace_ != nullptr && l.flow != 0) {
    trace_->flow_end(trace_lane_, "msg", "flow", now, l.flow);
  }
  record_flight(s, now);
}

void Nic::record_flight(const RxStamps& s, sim::Tick t_deposit) {
  if (flight_ == nullptr) return;
  obs::FlightLeg leg = s.leg;
  leg.t_deposit = t_deposit;
  flight_->record(leg, s.op_tag, s.tenant);
}

void Nic::issue_rndv_pull(const PendingRts& rts, const RecvDesc& r) {
  if (rts.bytes > r.max_bytes) {
    throw std::runtime_error("recv buffer too small for rendezvous send");
  }
  net::Message pull;
  pull.src = node_id_;
  pull.dst = rts.src;
  pull.kind = kRndvPull;
  pull.h0 = rts.sender_buf;
  pull.h1 = rts.bytes;
  pull.h2 = r.local_addr;
  pull.h3 = r.flag;
  pull.h4 = r.flag_value;
  stamp_tx(pull, sim_->now(), -1, false);
  reliability_.send(std::move(pull));
}

void Nic::post_recv(RecvDesc r) {
  // Check parked rendezvous RTS descriptors first...
  for (auto it = pending_rts_.begin(); it != pending_rts_.end(); ++it) {
    if (it->src == r.src && it->tag == r.tag) {
      PendingRts rts = *it;
      pending_rts_.erase(it);
      issue_rndv_pull(rts, r);
      return;
    }
  }
  // ...then the unexpected eager queue (message arrived before the recv).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->src == r.src && it->h0 == r.tag) {
      net::Message msg = std::move(*it);
      unexpected_.erase(it);
      if (msg.payload.size() > r.max_bytes) {
        throw std::runtime_error("recv buffer too small for matched send");
      }
      RxStamps stamps = RxStamps::from(msg);
      if (msg.payload.empty()) {
        set_flag(r.flag, r.flag_value);
        record_delivery(stamps);
        return;
      }
      landings_.push_back(
          Landing{r.flag, r.flag_value, stamps, std::move(msg.payload)});
      rx_dma_.write_from(r.local_addr, landings_.back().payload,
                         sim::method<&Nic::unexpected_landed>(this));
      return;
    }
  }
  posted_.push_back(r);
}

void Nic::deliver(net::Message&& msg) {
  // All wire arrivals pass through the reliability layer: ACK/NACK traffic
  // is absorbed there, data reaches rx_queue_ exactly once and in order.
  reliability_.on_wire_receive(std::move(msg));
}

void Nic::set_flag(mem::Addr flag, std::uint64_t value) {
  if (flag != 0) mem_->store<std::uint64_t>(flag, value);
}

void Nic::unexpected_landed() {
  Landing l = std::move(landings_.front());
  landings_.pop_front();
  set_flag(l.flag, l.flag_value);
  // The staging buffer's bytes are in memory now; recycle its allocation.
  fabric_->payload_pool().release(std::move(l.payload));
  record_delivery(l.stamps);
}

void Nic::tx_start(QueuedCmd&& qc) {
  tx_ = std::move(qc);
  tx_.popped = sim_->now();
  // Rate-limited admission: the command stays "queued" in the ledger while
  // it waits for a token, so pacing stalls show up as NIC command-queue
  // time in the utilization report.
  sim_->delay(rate_ != nullptr ? rate_->reserve(sim_->now()) : 0,
              [this] { tx_admitted(); });
}

void Nic::tx_admitted() {
  tx_begin_ = sim_->now();
  tx_.admitted = tx_begin_;  // == popped when pacing is off or had tokens
  cmd_util_.dequeue(tx_begin_);
  cmd_util_.acquire(tx_begin_);
  sim_->delay(config_.cmd_fetch, [this] { tx_execute(); });
}

void Nic::tx_execute() {
  Command& cmd = tx_.cmd;
  if (auto* put = std::get_if<PutDesc>(&cmd)) {
    net::Message& msg = tx_msg_;
    msg = net::Message{};
    msg.src = node_id_;
    msg.dst = put->target;
    msg.kind = kPut;
    msg.h0 = put->remote_addr;
    msg.h1 = put->remote_flag;
    msg.h2 = put->flag_value;
    msg.h3 = put->remote_trigger_tag_plus1;
    msg.op_tag = put->op_tag;
    msg.tenant = put->tenant;
    msg.payload = fabric_->payload_pool().acquire();
    tx_dma_.read_into(msg.payload, put->local_addr, put->bytes,
                      sim::method<&Nic::tx_payload_read>(this));
    return;
  }
  if (auto* get = std::get_if<GetDesc>(&cmd)) {
    net::Message msg;
    msg.src = node_id_;
    msg.dst = get->target;
    msg.kind = kGetReq;
    msg.h0 = get->remote_addr;   // where to read at the target
    msg.h1 = get->bytes;
    msg.h2 = get->local_addr;    // reply lands here
    msg.h3 = get->local_flag;    // raised when it has landed...
    msg.h4 = get->flag_value;    // ...to this value
    msg.op_tag = get->op_tag;
    msg.tenant = get->tenant;
    stamp_tx(msg, tx_);
    reliability_.send(std::move(msg));
    tx_finish();
    return;
  }
  auto& send = std::get<SendDesc>(cmd);
  if (send.bytes <= config_.eager_threshold) {
    net::Message& msg = tx_msg_;
    msg = net::Message{};
    msg.src = node_id_;
    msg.dst = send.target;
    msg.kind = kSend;
    msg.h0 = send.tag;
    msg.op_tag = send.op_tag;
    msg.tenant = send.tenant;
    msg.payload = fabric_->payload_pool().acquire();
    tx_dma_.read_into(msg.payload, send.local_addr, send.bytes,
                      sim::method<&Nic::tx_payload_read>(this));
    return;
  }
  // Rendezvous: ship only the ready-to-send descriptor; the payload stays
  // put until the target's receive matches and pulls it.
  rndv_sender_state_[send.local_addr] =
      SenderRndvState{send.local_flag, send.flag_value};
  net::Message rts;
  rts.src = node_id_;
  rts.dst = send.target;
  rts.kind = kRts;
  rts.h0 = send.tag;
  rts.h1 = send.bytes;
  rts.h2 = send.local_addr;
  rts.op_tag = send.op_tag;
  rts.tenant = send.tenant;
  stamp_tx(rts, tx_);
  reliability_.send(std::move(rts));
  // Local completion is raised when the pull drains the buffer.
  tx_finish();
}

void Nic::tx_payload_read() {
  // Payload has left the send buffer: local completion.
  if (const auto* put = std::get_if<PutDesc>(&tx_.cmd)) {
    set_flag(put->local_flag, put->flag_value);
  } else {
    const auto& send = std::get<SendDesc>(tx_.cmd);
    set_flag(send.local_flag, send.flag_value);
  }
  stamp_tx(tx_msg_, tx_);
  reliability_.send(std::move(tx_msg_));
  tx_finish();
}

void Nic::tx_finish() {
  cmd_util_.release(sim_->now());
  if (trace_ != nullptr) {
    const char* kind = std::holds_alternative<PutDesc>(tx_.cmd)   ? "put"
                       : std::holds_alternative<GetDesc>(tx_.cmd) ? "get"
                                                                  : "send";
    trace_->span(trace_lane_, std::string("tx:") + kind, "nic", tx_begin_,
                 sim_->now());
  }
  cmd_queue_.finish();
}

void Nic::rx_start(net::Message&& msg) {
  rx_ = std::move(msg);
  rx_begin_ = sim_->now();
  sim_->delay(config_.rx_pipeline, [this] { rx_handle(); });
}

void Nic::rx_handle() {
  net::Message& msg = rx_;
  // Captured before the payload lands; data-carrying kinds feed the stage
  // histograms (and end their trace flow) once the deposit is done.
  rx_stamps_ = RxStamps::from(msg);
  switch (msg.kind) {
    case kPut:
    case kRndvData:
    case kGetReply:
      rx_land(msg.h0, msg.h1, msg.h2);
      return;
    case kSend: {
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if (it->src == msg.src && it->tag == msg.h0) {
          RecvDesc r = *it;
          posted_.erase(it);
          if (msg.payload.size() > r.max_bytes) {
            throw std::runtime_error("recv buffer too small for matched send");
          }
          rx_land(r.local_addr, r.flag, r.flag_value);
          return;
        }
      }
      unexpected_.push_back(std::move(msg));  // rx_.kind survives the move
      break;
    }
    case kRts: {
      PendingRts rts{msg.src, msg.h0, msg.h1, msg.h2};
      bool matched = false;
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if (it->src == msg.src && it->tag == msg.h0) {
          RecvDesc r = *it;
          posted_.erase(it);
          issue_rndv_pull(rts, r);
          matched = true;
          break;
        }
      }
      if (!matched) pending_rts_.push_back(rts);
      break;
    }
    case kRndvPull: {
      // We are the original sender: stream the payload to the receiver.
      net::Message& data = rx_out_;
      data = net::Message{};
      data.src = node_id_;
      data.dst = msg.src;
      data.kind = kRndvData;
      data.h0 = msg.h2;  // receiver's buffer
      data.h1 = msg.h3;  // receiver's flag
      data.h2 = msg.h4;  // receiver's flag value
      data.payload = fabric_->payload_pool().acquire();
      tx_dma_.read_into(data.payload, msg.h0, msg.h1,
                        sim::method<&Nic::rx_out_read>(this));
      return;
    }
    case kGetReq: {
      // The request leg ends here (no payload deposits). Feeds only the
      // flight recorder — the always-on histograms never saw get requests
      // and must not start to (pinned goldens).
      record_flight(rx_stamps_, sim_->now());
      net::Message& reply = rx_out_;
      reply = net::Message{};
      reply.src = node_id_;
      reply.dst = msg.src;
      reply.kind = kGetReply;
      reply.h0 = msg.h2;  // initiator's local_addr
      reply.h1 = msg.h3;  // initiator's local_flag
      reply.h2 = msg.h4;  // its flag value
      // The reply is the same logical op's second leg.
      reply.op_tag = msg.op_tag;
      reply.tenant = msg.tenant;
      reply.payload = fabric_->payload_pool().acquire();
      tx_dma_.read_into(reply.payload, msg.h0, msg.h1,
                        sim::method<&Nic::rx_out_read>(this));
      return;
    }
    default:
      throw std::logic_error("nic: unknown message kind");
  }
  rx_finish();
}

void Nic::rx_land(mem::Addr dst, mem::Addr flag, std::uint64_t value) {
  rx_flag_ = flag;
  rx_flag_value_ = value;
  if (rx_.payload.empty()) {
    rx_landed();
    return;
  }
  rx_dma_.write_from(dst, rx_.payload, sim::method<&Nic::rx_landed>(this));
}

void Nic::rx_landed() {
  set_flag(rx_flag_, rx_flag_value_);
  // The staging buffer's bytes are in memory now; recycle its allocation.
  if (!rx_.payload.empty()) {
    fabric_->payload_pool().release(std::move(rx_.payload));
  }
  record_delivery(rx_stamps_);
  if (rx_.kind == kPut && rx_.h3 != 0 && rx_trigger_hook_) {
    // Counting receive event: bump the local trigger counter so a chained
    // operation can fire with no processor involvement.
    rx_trigger_hook_(rx_.h3 - 1);
  }
  rx_finish();
}

void Nic::rx_out_read() {
  if (rx_.kind == kRndvPull) {
    // Payload has left the send buffer: the send's local completion.
    auto st = rndv_sender_state_.find(rx_.h0);
    if (st != rndv_sender_state_.end()) {
      set_flag(st->second.local_flag, st->second.flag_value);
      rndv_sender_state_.erase(st);
    }
  }
  stamp_tx(rx_out_, sim_->now(), -1, false);
  reliability_.send(std::move(rx_out_));
  rx_finish();
}

void Nic::rx_finish() {
  if (trace_ != nullptr) {
    trace_->span(trace_lane_, "rx:" + std::to_string(rx_.kind), "nic",
                 rx_begin_, sim_->now());
  }
  rx_queue_.finish();
}

}  // namespace gputn::nic
