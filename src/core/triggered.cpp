#include "core/triggered.hpp"

#include <stdexcept>
#include <string>

namespace gputn::core {

TriggeredNic::TriggeredNic(sim::Simulator& sim, nic::Nic& nic,
                           mem::Memory& memory, TriggeredNicConfig config)
    : sim_(&sim),
      nic_(&nic),
      config_(config),
      table_(config.table),
      trigger_addr_(memory.map_mmio(sizeof(std::uint64_t), this)),
      dyn_trigger_addr_(memory.map_mmio(sizeof(std::uint64_t), this)),
      fifo_(sim, sim::method<&TriggeredNic::match>(this)) {
  // Counting receive events (puts that carry a trigger tag) feed the same
  // matching FIFO as GPU trigger stores.
  nic_->set_rx_trigger_hook([this](std::uint64_t tag) {
    ++triggers_received_;
    fifo_.push(TriggerEvent{tag, false, sim_->now(), false});
  });
}

void TriggeredNic::register_dynamic_put(Tag tag, nic::PutDesc put) {
  put.target = -1;  // patched from the trigger event
  register_put(tag, /*threshold=*/1, put);
}

void TriggeredNic::register_put(Tag tag, std::uint64_t threshold,
                                nic::PutDesc put) {
  if (auto ready = table_.register_put(tag, threshold, put)) {
    // The threshold was already met (relaxed synchronization): fire now.
    // Note: a *dynamic* put cannot legally reach here — orphan entries do
    // not retain the event's target, so dynamic puts do not compose with
    // trigger-before-post (fire() faults on the -1 target). The triggering
    // store's arrival time is not retained by the orphan entry either,
    // so the fire carries no trigger timestamp.
    fire(*ready, /*dynamic_target=*/-1, /*trigger_at=*/-1,
         /*trigger_mmio=*/false);
  }
}

void TriggeredNic::on_mmio_store(mem::Addr addr, std::uint64_t value) {
  if (addr != trigger_addr_ && addr != dyn_trigger_addr_) {
    throw std::logic_error("triggered NIC: store to unexpected MMIO address");
  }
  ++triggers_received_;
  fifo_.push(TriggerEvent{value, addr == dyn_trigger_addr_, sim_->now(),
                          true});
  fifo_high_water_ = std::max(fifo_high_water_, fifo_.size());
}

void TriggeredNic::fire(nic::PutDesc put, int dynamic_target,
                        sim::Tick trigger_at, bool trigger_mmio) {
  if (put.target < 0) {
    // A dynamic put (§3.4): the target comes from the trigger event.
    if (dynamic_target < 0) {
      throw std::runtime_error(
          "dynamic triggered put fired by a non-dynamic trigger event");
    }
    put.target = dynamic_target;
  }
  nic_->enqueue_internal(put, trigger_at, trigger_mmio);
}

void TriggeredNic::match(TriggerEvent&& ev) {
  cur_ = ev;
  // The lookup is priced on the list as the store finds it; the store
  // counts when the delay ends.
  sim::Tick cost = table_.probe_cost(cur_.tag()) + config_.update_cost;
  if (cur_.dynamic) cost += config_.dynamic_decode_cost;
  sim_->delay(cost, [this] { update(); });
}

void TriggeredNic::update() {
  std::optional<nic::PutDesc> ready = table_.write(cur_.tag());
  if (trace_ != nullptr) {
    // A span (store arrival -> counter updated) rather than an instant,
    // so flow steps through the trigger unit have a slice to bind to.
    trace_->span(trace_lane_,
                 "trigger tag=" + std::to_string(cur_.tag()) +
                     (ready ? " FIRE" : ""),
                 "trigger", cur_.at >= 0 ? cur_.at : sim_->now(),
                 sim_->now());
  }
  if (ready) fire(*ready, cur_.target(), cur_.at, cur_.mmio);
  fifo_.finish();
}

}  // namespace gputn::core
