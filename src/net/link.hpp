// Point-to-point link with serialization (occupancy) and propagation delay.
//
// Packets entering the link queue FIFO on the transmitter: each occupies the
// link for `bytes / bandwidth`, then propagates for a fixed latency during
// which the next packet may already be serializing (standard pipelined wire
// model). The link hands packets to a downstream callback (switch input or
// NIC receive path). The link is a passive unit (sim::Fifo, DESIGN.md §9):
// it runs no process, only one event per serialization and one per
// propagation, plus the queue's wake-up when a packet finds it idle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/busy.hpp"
#include "sim/sync.hpp"
#include "sim/units.hpp"

namespace gputn::net {

struct Packet;
using PacketFn = std::function<void(Packet&&)>;

/// In-flight fragment of a Message. The shared state owns the full message;
/// the last packet to arrive delivers it.
struct MessageInFlight;

struct Packet {
  std::shared_ptr<MessageInFlight> flight;
  std::uint32_t wire_bytes = 0;
  bool last = false;
};

/// What fault injection decides for one packet traversing a link.
struct FaultVerdict {
  bool drop = false;
  bool corrupt = false;       ///< flag the whole message as corrupted
  sim::Tick extra_delay = 0;  ///< jitter added to this packet's propagation
};

/// Per-link fault-injection interface, consulted once per packet in FIFO
/// transmission order (so a deterministic injector sees a deterministic
/// packet sequence). Implemented by fault::FaultModel; a null injector
/// means a perfect link.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual FaultVerdict classify(const Packet& p) = 0;
};

class Link {
 public:
  Link(sim::Simulator& sim, std::string name, sim::Bandwidth bandwidth,
       sim::Tick propagation, PacketFn downstream);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Enqueue a packet for transmission (non-blocking; FIFO).
  void submit(Packet&& p);

  /// Attach a fault injector (nullptr = lossless). Applies to packets not
  /// yet serialized; typically wired before traffic starts.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

  const std::string& name() const { return name_; }
  std::uint64_t bytes_transmitted() const { return bytes_; }
  std::uint64_t packets_transmitted() const { return packets_; }
  std::uint64_t packets_dropped() const { return dropped_; }
  std::uint64_t packets_corrupted() const { return corrupted_; }

  /// Wire-occupancy ledger: busy while a packet serializes, queued while
  /// packets wait behind it (propagation is pipelined and not occupancy).
  const obs::BusyTracker& util() const { return util_; }

 private:
  /// The packet at the head of the queue takes the wire.
  void start(Packet&& p);
  /// Its serialization is done: account, apply the fault verdict, and
  /// launch its propagation.
  void finish();

  sim::Simulator* sim_;
  std::string name_;
  sim::Bandwidth bandwidth_;
  sim::Tick propagation_;
  PacketFn downstream_;
  FaultInjector* fault_ = nullptr;
  sim::Fifo<Packet> queue_;
  Packet wire_;  ///< the packet serializing
  obs::BusyTracker util_;
  std::uint64_t bytes_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
};

}  // namespace gputn::net
