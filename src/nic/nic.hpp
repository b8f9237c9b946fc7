// RDMA-capable NIC model (Portals-4-flavoured).
//
// The NIC exposes a command queue fed by doorbells. Commands are one-sided
// puts/gets or two-sided tagged sends. The TX engine fetches a command,
// DMA-reads the payload out of node memory (after which the local completion
// flag is raised — the buffer is reusable), and hands the message to the
// fabric. The RX engine lands payloads via DMA and raises target-side
// completion flags, and performs tag matching for two-sided traffic
// (posted-receive list + unexpected-message queue, matched on the exact
// source and tag). Sends past the eager threshold use rendezvous (RTS ->
// pull -> data). NIC-written memory flags are the only completion signal:
// kernels and hosts poll them (§4.2.4).
//
// Both engines, both DMA engines and the token bucket are passive units
// (DESIGN.md §9): each engine is a sim::Fifo whose item in service lives in
// a Nic member, and every step is one event (or none, for a zero delay)
// that captures only `this`. The NIC runs no process; a fault inside an
// engine (a receive buffer too small for its matched send) throws out of
// Simulator::run().
//
// The GPU-TN triggered-operation extension lives in core/triggered.hpp and
// feeds this command queue when a trigger entry fires (§3.3: "the logic-level
// changes required for GPU-TN would be simple to add").
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <variant>

#include "fault/reliability.hpp"
#include "mem/dma.hpp"
#include "mem/memory.hpp"
#include "net/fabric.hpp"
#include "nic/token_bucket.hpp"
#include "obs/busy.hpp"
#include "obs/flight.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/sync.hpp"

namespace gputn::nic {

struct NicConfig {
  /// Delay from a doorbell ring (MMIO store by CPU or GPU) until the command
  /// is visible to the NIC command processor.
  sim::Tick doorbell_latency = sim::ns(40);
  /// Command fetch/decode occupancy per command.
  sim::Tick cmd_fetch = sim::ns(30);
  /// RX pipeline latency per inbound message before DMA.
  sim::Tick rx_pipeline = sim::ns(40);
  /// On-die DMA engines (SoC: CPU/GPU/NIC share memory, no PCIe copy).
  /// Well above wire speed so staging does not add store-and-forward
  /// latency that a real cut-through RDMA NIC would pipeline away.
  sim::Bandwidth dma_bandwidth = sim::Bandwidth::gbps(1600);
  sim::Tick dma_startup = sim::ns(20);
  /// Two-sided sends up to this size travel eagerly (payload with the
  /// first message, buffered if unexpected); larger sends use the
  /// rendezvous protocol (RTS -> pull -> data), which avoids buffering
  /// large unexpected payloads at the cost of an extra round trip.
  std::uint64_t eager_threshold = 64 * 1024;
  /// End-to-end reliable delivery (sequence numbers, ACK/NACK, retransmit
  /// with exponential backoff). Disabled by default — a lossless fabric
  /// needs none of it and must pay zero message overhead; the cluster turns
  /// it on automatically when fault injection is configured.
  fault::ReliabilityConfig reliability;
  /// Token-bucket pacing of the command pipeline (multi-tenant NIC rate
  /// limiting). Disabled by default (ops_per_sec == 0): commands are
  /// admitted unconditionally and the limiter never suspends, so existing
  /// workloads are bit-identical with or without this field existing.
  TokenBucketConfig rate_limit;
};

/// One-sided put: write `bytes` from initiator `local_addr` to target
/// `remote_addr`. Completion flags are optional (0 = none).
struct PutDesc {
  net::NodeId target = -1;
  mem::Addr local_addr = 0;
  std::uint64_t bytes = 0;
  mem::Addr remote_addr = 0;
  /// Initiator-side flag: set when the payload has left the send buffer.
  mem::Addr local_flag = 0;
  /// Target-side flag: set (in target memory) after the payload has landed.
  mem::Addr remote_flag = 0;
  std::uint64_t flag_value = 1;
  /// If nonzero - 1 != 0 semantics: after the payload lands, the target
  /// NIC increments its own trigger counter `remote_trigger_tag - 1`
  /// (Portals-style counting receive event). This is what lets triggered
  /// chains span nodes with no processor involvement (§6, Underwood et
  /// al.). 0 = disabled; tag T is encoded as T + 1.
  std::uint64_t remote_trigger_tag_plus1 = 0;
  /// Observability pass-through (net::Message op_tag/tenant): pairs this
  /// put with its logical partner in the flight recorder. Never interpreted
  /// by the NIC.
  std::uint64_t op_tag = 0;
  std::int32_t tenant = -1;
};

/// One-sided get: read `bytes` from target `remote_addr` into initiator
/// `local_addr`; `local_flag` is raised to `flag_value` when the data has
/// landed locally (the request carries the value to the target, and its
/// reply back).
struct GetDesc {
  net::NodeId target = -1;
  mem::Addr local_addr = 0;
  std::uint64_t bytes = 0;
  mem::Addr remote_addr = 0;
  mem::Addr local_flag = 0;
  std::uint64_t flag_value = 1;
  /// Observability pass-through; the GetReply inherits both (see PutDesc).
  std::uint64_t op_tag = 0;
  std::int32_t tenant = -1;
};

/// Two-sided tagged send (matched against a posted receive at the target).
/// Sends above the eager threshold use rendezvous: only a ready-to-send
/// header travels; the target pulls the payload once the receive matches.
struct SendDesc {
  net::NodeId target = -1;
  mem::Addr local_addr = 0;
  std::uint64_t bytes = 0;
  std::uint64_t tag = 0;
  mem::Addr local_flag = 0;
  std::uint64_t flag_value = 1;
  /// Observability pass-through (see PutDesc).
  std::uint64_t op_tag = 0;
  std::int32_t tenant = -1;
};

using Command = std::variant<PutDesc, GetDesc, SendDesc>;

/// Posted receive for two-sided matching on (src, tag).
struct RecvDesc {
  net::NodeId src = -1;
  std::uint64_t tag = 0;
  mem::Addr local_addr = 0;
  std::uint64_t max_bytes = 0;
  mem::Addr flag = 0;            ///< set when the payload has landed
  std::uint64_t flag_value = 1;
};

class Nic : public net::MessageSink {
 public:
  Nic(sim::Simulator& sim, mem::Memory& memory, net::Fabric& fabric,
      NicConfig config);
  ~Nic() override = default;

  net::NodeId node_id() const { return node_id_; }
  const NicConfig& config() const { return config_; }

  /// Ring the command doorbell. Models the doorbell-write-to-NIC latency;
  /// commands execute FIFO. Zero-cost for the caller (posted write).
  void ring_doorbell(Command cmd);
  /// Same, for commands that sat in a software queue before the ring (Qp
  /// batching): `posted` is when the command entered that queue, so the
  /// post->ring gap (batch wait) is visible per op instead of every command
  /// of a batch inheriting the flush time.
  void ring_doorbell(Command cmd, sim::Tick posted);

  /// Enqueue a command with no doorbell delay (used by on-NIC agents such as
  /// the triggered-op unit, which is already inside the NIC), carrying the
  /// triggering store's arrival time (latency stage `lat.trigger_to_fire`)
  /// and whether that store came from the GPU's MMIO trigger address
  /// (anchors the trace flow on the gpu lane) rather than a counting-receive
  /// event.
  void enqueue_internal(Command cmd, sim::Tick trigger_at, bool trigger_mmio);

  /// Post a two-sided receive. Matching is FIFO per (src, tag); checks the
  /// parked rendezvous and unexpected queues first.
  void post_recv(RecvDesc r);

  /// Hook invoked when an inbound put carries a counting-receive tag
  /// (PutDesc::remote_trigger_tag_plus1). The triggered-op extension
  /// registers itself here.
  void set_rx_trigger_hook(std::function<void(std::uint64_t tag)> hook) {
    rx_trigger_hook_ = std::move(hook);
  }

  // -- net::MessageSink ----------------------------------------------------
  void deliver(net::Message&& msg) override;

  /// The delivery-stage histograms (lat.*) and the reliability layer's
  /// counters (rel.*); Cluster::export_net_stats merges both.
  const sim::StatRegistry& stats() const { return stats_; }

  /// Attach a trace recorder; TX command and RX message events are
  /// emitted onto `lane`, retransmission instants included. The optional
  /// sibling lanes let the NIC anchor flow begins on the GPU lane (trigger
  /// store) and route flow steps through the trigger lane, so the viewer
  /// draws gpu -> trig -> nic -> fabric -> remote-nic arrows.
  void set_trace(sim::TraceRecorder* trace, std::string lane,
                 std::string gpu_lane = {}, std::string trig_lane = {}) {
    trace_ = trace;
    trace_lane_ = lane;
    gpu_lane_ = std::move(gpu_lane);
    trig_lane_ = std::move(trig_lane);
    reliability_.set_trace(trace, std::move(lane));
  }
  int posted_recvs() const { return static_cast<int>(posted_.size()); }
  int unexpected_msgs() const { return static_cast<int>(unexpected_.size()); }

  /// The reliable-delivery layer between this NIC and the fabric
  /// (pass-through when NicConfig::reliability.enabled is false).
  fault::ReliabilityLayer& reliability() { return reliability_; }
  const fault::ReliabilityLayer& reliability() const { return reliability_; }

  /// Command-pipeline ledger: busy from command fetch through execution
  /// (including the TX DMA), queued while commands wait in the FIFO.
  const obs::BusyTracker& cmd_util() const { return cmd_util_; }
  /// The TX / RX DMA engines' ledgers.
  const obs::BusyTracker& tx_dma_util() const { return tx_dma_.util(); }
  const obs::BusyTracker& rx_dma_util() const { return rx_dma_.util(); }
  /// Commands currently waiting in the FIFO (time-series gauge).
  std::size_t cmd_queue_depth() const { return cmd_queue_.size(); }

  /// The command-pipeline rate limiter, or nullptr when NicConfig left it
  /// disabled.
  const TokenBucket* rate_limiter() const { return rate_.get(); }

  /// Attach a per-op flight recorder (obs/flight.hpp): every delivered
  /// data message is offered to it with its full stamp set. nullptr
  /// detaches. Recording is pure bookkeeping and cannot perturb timing.
  void set_flight(obs::FlightSink* flight) { flight_ = flight; }

 private:
  enum MsgKind : std::uint32_t {
    kPut = 1,
    kSend = 2,
    kGetReq = 3,
    kGetReply = 4,
    kRts = 5,       ///< rendezvous ready-to-send (header only)
    kRndvPull = 6,  ///< rendezvous pull request (header only)
    kRndvData = 7,  ///< rendezvous payload
  };

  /// RTS descriptors parked at the target until a receive matches.
  struct PendingRts {
    net::NodeId src;
    std::uint64_t tag;
    std::uint64_t bytes;
    std::uint64_t sender_buf;
  };
  /// Sender-side completion state for an in-flight rendezvous, keyed by
  /// the (unique) send buffer address; resolved when the pull arrives.
  struct SenderRndvState {
    mem::Addr local_flag;
    std::uint64_t flag_value;
  };

  /// Command-queue entry: the command plus observability context (when it
  /// entered the queue and, for triggered ops, when the trigger arrived).
  struct QueuedCmd {
    Command cmd;
    sim::Tick enqueued = -1;  ///< entered the NIC command queue
    sim::Tick trigger = -1;
    bool trigger_mmio = false;
    sim::Tick posted = -1;    ///< posted to a software queue (Qp)
    sim::Tick rung = -1;      ///< doorbell rung (batch flush instant)
    sim::Tick popped = -1;    ///< TX engine popped it off the queue
    sim::Tick admitted = -1;  ///< token bucket admitted (== popped unpaced)
  };
  /// A delivered message's flight leg, captured before its payload is
  /// moved out for the deposit DMA (t_deposit is filled at record time),
  /// plus the op pairing the leg does not carry.
  struct RxStamps {
    obs::FlightLeg leg;
    std::uint64_t op_tag = 0;
    std::int32_t tenant = -1;
    static RxStamps from(const net::Message& m);
  };

  /// An unexpected message matched by post_recv, its payload landing
  /// through the RX DMA.
  struct Landing {
    mem::Addr flag;
    std::uint64_t flag_value;
    RxStamps stamps;
    std::vector<std::byte> payload;
  };

  // TX engine, one step per event: admission (token bucket), command
  // fetch, execution (a put or eager send reads its payload through the
  // TX DMA), finish.
  void tx_start(QueuedCmd&& qc);
  void tx_admitted();
  void tx_execute();
  /// The TX DMA read a put's or eager send's payload: raise its local
  /// flag and send it.
  void tx_payload_read();
  void tx_finish();
  // RX engine: the RX pipeline, then the message kind. Landings finish
  // from the RX DMA; a get reply or rendezvous payload from the TX DMA.
  void rx_start(net::Message&& msg);
  void rx_handle();
  /// Land the message in service's payload at `dst`, then raise `flag`.
  void rx_land(mem::Addr dst, mem::Addr flag, std::uint64_t value);
  void rx_landed();
  /// The TX DMA read the payload of rx_out_ (a get reply or rendezvous
  /// data): send it.
  void rx_out_read();
  void rx_finish();
  /// An unexpected message's payload, matched by post_recv, landed.
  void unexpected_landed();

  /// Stamp flow id + stage timestamps on an outbound message and emit its
  /// trace flow begin/steps. Must run before reliability_.send so the
  /// retransmission window copies carry the flow id.
  void stamp_tx(net::Message& msg, sim::Tick t_cmd, sim::Tick t_trigger,
                bool trigger_mmio);
  /// Same, copying the full stage context a queued command accumulated
  /// (post/ring/pop/admit on top of cmd/trigger).
  void stamp_tx(net::Message& msg, const QueuedCmd& qc);
  /// Record the always-on lat.* stage histograms (and the trace flow end)
  /// for a message whose payload just deposited.
  void record_delivery(const RxStamps& s);
  /// Offer a delivered message's full stamp set to the attached flight
  /// recorder (no-op when none is attached).
  void record_flight(const RxStamps& s, sim::Tick t_deposit);
  /// Receiver side of rendezvous: issue the pull for a matched RTS.
  void issue_rndv_pull(const PendingRts& rts, const RecvDesc& r);

  void set_flag(mem::Addr flag, std::uint64_t value);

  sim::Simulator* sim_;
  mem::Memory* mem_;
  net::Fabric* fabric_;
  NicConfig config_;
  net::NodeId node_id_;

  /// Commands rung but not yet past the doorbell latency; drained FIFO by
  /// the events ring_doorbell schedules (constant latency keeps order).
  /// Entries already carry posted/rung; `enqueued` is stamped on drain.
  std::deque<QueuedCmd> doorbell_staging_;
  sim::Fifo<QueuedCmd> cmd_queue_;
  QueuedCmd tx_;            ///< the command in service
  sim::Tick tx_begin_ = 0;  ///< when it was admitted
  net::Message tx_msg_;     ///< its payload-carrying message, during the read
  obs::BusyTracker cmd_util_;
  std::unique_ptr<TokenBucket> rate_;
  sim::Fifo<net::Message> rx_queue_;
  net::Message rx_;         ///< the message in service
  sim::Tick rx_begin_ = 0;
  RxStamps rx_stamps_;
  mem::Addr rx_flag_ = 0;   ///< raised when rx_'s payload lands
  std::uint64_t rx_flag_value_ = 0;
  /// A get reply or rendezvous payload, while the TX DMA reads it.
  net::Message rx_out_;
  /// Unexpected messages matched by post_recv, landing through the RX DMA
  /// in this order.
  std::deque<Landing> landings_;
  mem::DmaEngine tx_dma_;
  mem::DmaEngine rx_dma_;

  std::deque<RecvDesc> posted_;
  std::deque<net::Message> unexpected_;
  std::deque<PendingRts> pending_rts_;
  std::map<mem::Addr, SenderRndvState> rndv_sender_state_;
  std::function<void(std::uint64_t)> rx_trigger_hook_;

  sim::TraceRecorder* trace_ = nullptr;
  obs::FlightSink* flight_ = nullptr;
  std::string trace_lane_;
  std::string gpu_lane_;
  std::string trig_lane_;
  sim::StatRegistry stats_;
  /// record_delivery's lat.* histograms, one per stage, each resolved in
  /// stats_ on the stage's first sample: a stage enters the export only
  /// once it holds one.
  std::array<sim::Histogram*, 5> lat_{};
  /// Declared after stats_ (it publishes counters there) and after
  /// node_id_/rx_queue_ (it addresses ACKs and feeds the RX queue).
  fault::ReliabilityLayer reliability_;
};

}  // namespace gputn::nic
