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
      queue_(sim) {
  sim_->spawn(pump(), "link:" + name_);
}

void Link::submit(Packet&& p) {
  util_.enqueue(sim_->now());
  queue_.push(std::move(p));
}

sim::Task<> Link::pump() {
  for (;;) {
    Packet p = co_await queue_.pop();
    util_.dequeue(sim_->now());
    util_.acquire(sim_->now());
    co_await sim_->delay(bandwidth_.serialize(p.wire_bytes));
    util_.release(sim_->now());
    util_.add_bytes(p.wire_bytes);
    bytes_ += p.wire_bytes;
    ++packets_;
    // Faults act on the wire: serialization occupancy is already paid by the
    // time a packet is dropped, corrupted, or delayed.
    sim::Tick extra = 0;
    if (fault_ != nullptr) {
      FaultVerdict v = fault_->classify(p);
      if (v.drop) {
        ++dropped_;
        continue;  // the packet — and with it the whole message — is lost
      }
      if (v.corrupt) {
        ++corrupted_;
        if (p.flight) p.flight->corrupted = true;
      }
      extra = v.extra_delay;
    }
    // Propagation overlaps with the next packet's serialization. The link
    // outlives every in-flight packet (pending events are destroyed, never
    // invoked, on simulator teardown), so capturing `this` keeps the event
    // small enough for EventFn's inline storage.
    sim_->schedule_in(
        propagation_ + extra,
        [this, p = std::move(p)]() mutable { downstream_(std::move(p)); });
  }
}

}  // namespace gputn::net
