// GPU-TN triggered-operation NIC extension (§3, Figure 4).
//
// This is the timed hardware agent wrapping TriggerTable:
//
//   * It maps a *trigger address* into the node's MMIO space. A GPU
//     work-item activates a trigger by a system-scope posted store of a tag
//     to that address (§3.1 step 3); the store lands in the trigger FIFO.
//   * A matching unit pops the FIFO, looks the tag up in the trigger list
//     (paying the configured lookup cost, §3.3) and counts the store on the
//     tag's entry (Figure 5). If the count reaches the entry's threshold,
//     its pre-staged put goes into the NIC command queue (§3.1 step 4) and
//     the entry leaves the list. The FIFO and matching unit are one passive
//     sim::Fifo (DESIGN.md §9): no process, one event per lookup delay,
//     plus the queue's wake-up when a store finds the unit idle.
//   * Host-side registration (TrigPut, Figure 6) goes through register_put;
//     relaxed synchronization (§3.2) is inherited from TriggerTable: a tag
//     written before registration creates an orphan entry, and a
//     registration that finds its threshold already met fires immediately.
#pragma once

#include <cstdint>
#include <string>

#include "core/trigger_table.hpp"
#include "mem/memory.hpp"
#include "nic/nic.hpp"
#include "sim/trace.hpp"
#include "sim/sync.hpp"

namespace gputn::core {

struct TriggeredNicConfig {
  TriggerTableConfig table;
  /// Latency from FIFO pop to counter update, excluding the tag lookup cost
  /// (two comparators + incrementer, Figure 5).
  sim::Tick update_cost = sim::ns(4);
  /// Extra decode + command-patch cost for dynamic trigger events (§3.4).
  sim::Tick dynamic_decode_cost = sim::ns(4);
};

/// Encode a dynamic trigger store: the low 32 bits carry the tag, the high
/// bits the GPU-chosen target node (§3.4's dynamic extension).
constexpr std::uint64_t encode_dynamic_trigger(Tag tag, int target) {
  return (static_cast<std::uint64_t>(target + 1) << 32) |
         (tag & 0xffffffffull);
}

class TriggeredNic : public mem::MmioHandler {
 public:
  TriggeredNic(sim::Simulator& sim, nic::Nic& nic, mem::Memory& memory,
               TriggeredNicConfig config);
  ~TriggeredNic() override = default;

  /// The memory-mapped trigger address handed to kernels (GetTriggerAddr,
  /// Figure 6 step 3).
  mem::Addr trigger_address() const { return trigger_addr_; }

  /// The dynamic-trigger address (§3.4, implemented here although the
  /// paper leaves it as future work): stores are encoded with
  /// encode_dynamic_trigger and carry the target node, which the NIC
  /// patches into the fired put. Costs one extra field decode on the NIC
  /// and GPU-side control flow to compute the target; removes the static-
  /// communication-pattern restriction.
  mem::Addr dynamic_trigger_address() const { return dyn_trigger_addr_; }

  /// Register a put whose target node is supplied by the GPU at trigger
  /// time (the staged put's `target` is ignored). Restricted to
  /// threshold == 1: with several contributors the "which target wins"
  /// question has no sane hardware answer.
  void register_dynamic_put(Tag tag, nic::PutDesc put);

  /// Host API: register a triggered put that fires when `tag`'s count
  /// reaches `threshold` (TrigPut, Figure 6 step 2). Zero-cost for the
  /// caller; the host runtime models its own posting cost. A tag holds one
  /// put until it fires: a second registration throws std::logic_error.
  void register_put(Tag tag, std::uint64_t threshold, nic::PutDesc put);

  /// mem::MmioHandler — the GPU's (or any agent's) trigger-address store.
  void on_mmio_store(mem::Addr addr, std::uint64_t value) override;

  const TriggerTable& table() const { return table_; }

  /// Attach a trace recorder; trigger events and fires land on `lane`.
  void set_trace(sim::TraceRecorder* trace, std::string lane) {
    trace_ = trace;
    trace_lane_ = std::move(lane);
  }

  std::uint64_t triggers_received() const { return triggers_received_; }
  /// Deepest the trigger FIFO has been after an MMIO store; stores beyond
  /// a real FIFO's depth would backpressure the GPU.
  std::uint64_t fifo_high_water() const { return fifo_high_water_; }

 private:
  struct TriggerEvent {
    std::uint64_t raw = 0;
    bool dynamic = false;
    /// When the store landed in the FIFO (observability: the start of the
    /// lat.trigger_to_fire stage).
    sim::Tick at = -1;
    /// True for MMIO trigger-address stores (GPU-originated) as opposed to
    /// counting-receive events; decides which trace lane a flow starts on.
    bool mmio = false;
    Tag tag() const { return dynamic ? (raw & 0xffffffffull) : raw; }
    /// Target encoded in a dynamic store, or -1.
    int target() const {
      return dynamic ? static_cast<int>(raw >> 32) - 1 : -1;
    }
  };

  /// The matching unit takes the FIFO's head store and pays its lookup.
  void match(TriggerEvent&& ev);
  /// The lookup is done: count the store, trace it and fire what it met.
  void update();
  void fire(nic::PutDesc put, int dynamic_target, sim::Tick trigger_at,
            bool trigger_mmio);

  sim::Simulator* sim_;
  nic::Nic* nic_;
  TriggeredNicConfig config_;
  TriggerTable table_;
  mem::Addr trigger_addr_;
  mem::Addr dyn_trigger_addr_;
  sim::Fifo<TriggerEvent> fifo_;
  TriggerEvent cur_;  ///< the store being matched
  std::uint64_t triggers_received_ = 0;
  std::uint64_t fifo_high_water_ = 0;
  sim::TraceRecorder* trace_ = nullptr;
  std::string trace_lane_;
};

}  // namespace gputn::core
