#include "net/link.hpp"

#include <utility>

#include "net/fabric.hpp"  // MessageInFlight definition

namespace gputn::net {

Link::Link(sim::Simulator& sim, std::string name, sim::Bandwidth bandwidth,
           sim::Tick propagation, PacketFn downstream)
    : sim_(&sim),
      name_(std::move(name)),
      bandwidth_(bandwidth),
      propagation_(propagation),
      downstream_(std::move(downstream)),
      queue_(sim, sim::method<&Link::start>(this)) {}

void Link::submit(Packet&& p) {
  util_.enqueue(sim_->now());
  queue_.push(std::move(p));
}

void Link::start(Packet&& p) {
  util_.dequeue(sim_->now());
  util_.acquire(sim_->now());
  wire_ = std::move(p);
  sim_->delay(bandwidth_.serialize(wire_.wire_bytes), [this] { finish(); });
}

void Link::finish() {
  util_.release(sim_->now());
  util_.add_bytes(wire_.wire_bytes);
  bytes_ += wire_.wire_bytes;
  ++packets_;
  // Faults act on the wire: serialization occupancy is already paid by the
  // time a packet is dropped, corrupted, or delayed.
  sim::Tick extra = 0;
  if (fault_ != nullptr) {
    FaultVerdict v = fault_->classify(wire_);
    if (v.drop) {
      // The packet — and with it the whole message — is lost.
      ++dropped_;
      wire_ = Packet{};
      queue_.finish();
      return;
    }
    if (v.corrupt) {
      ++corrupted_;
      if (wire_.flight) wire_.flight->corrupted = true;
    }
    extra = v.extra_delay;
  }
  // Propagation overlaps with the next packet's serialization. The link
  // outlives every in-flight packet (pending events are destroyed, never
  // invoked, on simulator teardown), so capturing `this` keeps the event
  // small enough for EventFn's inline storage.
  sim_->schedule_in(propagation_ + extra,
                    [this, p = std::move(wire_)]() mutable {
                      downstream_(std::move(p));
                    });
  queue_.finish();
}

}  // namespace gputn::net
