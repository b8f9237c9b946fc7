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
      fifo_(sim, sim::method<&TriggeredNic::match>(this)),
      log_("trig" + std::to_string(nic.node_id()), sim.now_ptr()) {
  // Counting receive events (puts that carry a trigger tag) feed the same
  // matching FIFO as GPU trigger stores.
  nic_->set_rx_trigger_hook([this](std::uint64_t tag) {
    ++triggers_received_;
    fifo_.push(TriggerEvent{tag, false, sim_->now(), false});
  });
}

void TriggeredNic::register_dynamic_put(Tag tag, nic::PutDesc put) {
  put.target = -1;  // patched from the trigger event
  register_op(tag, /*threshold=*/1, nic::Command(put), {});
}

void TriggeredNic::register_put(Tag tag, std::uint64_t threshold,
                                nic::PutDesc put) {
  register_op(tag, threshold, nic::Command(put), {});
}

void TriggeredNic::register_op(Tag tag, std::uint64_t threshold,
                               std::optional<nic::Command> cmd,
                               std::vector<Tag> chain) {
  std::vector<nic::Command> ready;
  table_.register_op(
      TriggeredOp{tag, threshold, std::move(cmd), /*fired=*/false,
                  std::move(chain)},
      ready);
  if (!ready.empty()) {
    log_.debug("tag %llu registered with threshold already met; firing",
               static_cast<unsigned long long>(tag));
    // Note: a *dynamic* put cannot legally reach here — orphan counters do
    // not retain the event's target, so dynamic ops do not compose with
    // trigger-before-post (fire() faults on the -1 target). The triggering
    // store's arrival time is not retained by the orphan counter either,
    // so the fire carries no trigger timestamp.
    fire(std::move(ready), /*dynamic_target=*/-1, /*trigger_at=*/-1,
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

void TriggeredNic::fire(std::vector<nic::Command>&& cmds, int dynamic_target,
                        sim::Tick trigger_at, bool trigger_mmio) {
  for (auto& cmd : cmds) {
    if (auto* put = std::get_if<nic::PutDesc>(&cmd); put != nullptr &&
        put->target < 0) {
      // A dynamic op (§3.4): the target comes from the trigger event.
      if (dynamic_target < 0) {
        throw std::runtime_error(
            "dynamic triggered put fired by a non-dynamic trigger event");
      }
      put->target = dynamic_target;
    }
    nic_->enqueue_internal(std::move(cmd), trigger_at, trigger_mmio);
  }
}

void TriggeredNic::match(TriggerEvent&& ev) {
  cur_ = ev;
  // Pay the lookup cost before touching the table so a concurrent host
  // release() cannot invalidate the entry across the delay.
  sim::Tick cost = table_.probe_cost(cur_.tag()) + config_.update_cost;
  if (cur_.dynamic) cost += config_.dynamic_decode_cost;
  sim_->delay(cost, [this] { update(); });
}

void TriggeredNic::update() {
  Tag tag = cur_.tag();
  auto [counter, lookup_cost, created] = table_.find_or_create(tag);
  (void)lookup_cost;
  if (created) {
    log_.debug("orphan counter created for tag %llu (relaxed sync)",
               static_cast<unsigned long long>(tag));
  }
  int chain_hops = 0;
  table_.increment(*counter, ready_, &chain_hops);
  if (chain_hops > 0) {
    // Each chained counter update costs another pass through the matching
    // hardware.
    sim_->delay(chain_hops * (config_.update_cost + table_.probe_cost(tag)),
                [this] { matched(); });
  } else {
    matched();
  }
}

void TriggeredNic::matched() {
  if (trace_ != nullptr) {
    // A span (store arrival -> counter updated) rather than an instant,
    // so flow steps through the trigger unit have a slice to bind to.
    trace_->span(trace_lane_,
                 "trigger tag=" + std::to_string(cur_.tag()) +
                     (ready_.empty() ? "" : " FIRE"),
                 "trigger", cur_.at >= 0 ? cur_.at : sim_->now(),
                 sim_->now());
  }
  if (!ready_.empty()) {
    fire(std::move(ready_), cur_.target(), cur_.at, cur_.mmio);
    ready_.clear();
  }
  fifo_.finish();
}

}  // namespace gputn::core
