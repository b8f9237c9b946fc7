#include "core/trigger_table.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gputn::core {

TriggerTable::TriggerTable(TriggerTableConfig config) : config_(config) {}

sim::Tick TriggerTable::lookup_cost(std::size_t position_in_list) const {
  switch (config_.lookup) {
    case LookupKind::kAssociative:
      return config_.associative_cost;
    case LookupKind::kHash:
      return config_.hash_cost;
    case LookupKind::kLinkedList:
      return static_cast<sim::Tick>(position_in_list + 1) *
             config_.list_hop_cost;
  }
  return 0;
}

TriggerTable::LookupResult TriggerTable::find_or_insert(Tag tag,
                                                        bool orphan) {
  auto [it, created] = counters_.try_emplace(tag);
  TriggerCounter& c = it->second;
  if (created) {
    if (config_.lookup == LookupKind::kAssociative &&
        static_cast<int>(counters_.size()) > config_.associative_entries) {
      counters_.erase(it);
      throw std::runtime_error(
          "trigger table: associative lookup capacity exceeded (" +
          std::to_string(config_.associative_entries) + " entries)");
    }
    c.tag = tag;
    c.orphan = orphan;
    c.pos = counters_.size() - 1;
  }
  // A miss walks the whole list in the linked-list variant.
  return {&c, lookup_cost(c.pos), created};
}

TriggerTable::LookupResult TriggerTable::find_or_create(Tag tag) {
  LookupResult r = find_or_insert(tag, /*orphan=*/true);
  if (r.created) ++orphans_created_;
  return r;
}

TriggerCounter* TriggerTable::find(Tag tag) {
  auto it = counters_.find(tag);
  return it != counters_.end() ? &it->second : nullptr;
}

sim::Tick TriggerTable::probe_cost(Tag tag) const {
  // Only the linked list's cost depends on where the entry is.
  if (config_.lookup != LookupKind::kLinkedList) return lookup_cost(0);
  auto it = counters_.find(tag);
  if (it != counters_.end()) return lookup_cost(it->second.pos);
  return lookup_cost(counters_.empty() ? 0 : counters_.size() - 1);
}

void TriggerTable::register_op(TriggeredOp op,
                               std::vector<nic::Command>& fired) {
  TriggerCounter& c = *find_or_insert(op.tag, /*orphan=*/false).counter;
  // §3.2: if a GPU already advanced this counter past the threshold, the
  // operation executes immediately on registration.
  if (c.count >= op.threshold) fire_op(op, fired, nullptr, 0);
  c.ops.push_back(std::move(op));
  ++live_ops_;
}

void TriggerTable::fire_op(TriggeredOp& op, std::vector<nic::Command>& fired,
                           int* chain_hops, int chain_depth) {
  op.fired = true;
  ++ops_fired_;
  if (op.op.has_value()) fired.push_back(*op.op);
  // Cascade chained counter increments (Portals triggered CTInc). Nothing
  // registers an op during a cascade, so no ops vector moves under it.
  for (Tag next : op.chain) {
    if (chain_hops != nullptr) ++*chain_hops;
    TriggerCounter& c = *find_or_create(next).counter;
    ++c.count;
    collect_ready(c, fired, chain_hops, chain_depth);
  }
}

void TriggerTable::collect_ready(TriggerCounter& counter,
                                 std::vector<nic::Command>& fired,
                                 int* chain_hops, int depth) {
  if (depth > 64) {
    throw std::runtime_error("trigger chain depth exceeds 64 (cycle?)");
  }
  // Fire in registration order, at the count this scan began with.
  const std::uint64_t count = counter.count;
  for (TriggeredOp& op : counter.ops) {
    if (!op.fired && count >= op.threshold) {
      fire_op(op, fired, chain_hops, depth + 1);
    }
  }
}

void TriggerTable::increment(TriggerCounter& counter,
                             std::vector<nic::Command>& fired,
                             int* chain_hops) {
  ++counter.count;
  collect_ready(counter, fired, chain_hops, 0);
}

void TriggerTable::release(Tag tag) {
  auto it = counters_.find(tag);
  if (it == counters_.end()) return;
  std::size_t erased_pos = it->second.pos;
  live_ops_ -= static_cast<int>(it->second.ops.size());
  counters_.erase(it);
  // Counters behind the erased list node shift forward one position.
  for (auto& [t, c] : counters_) {
    if (c.pos > erased_pos) --c.pos;
  }
}

int TriggerTable::pending_ops() const {
  int n = 0;
  for (const auto& [t, c] : counters_) {
    n += static_cast<int>(
        std::count_if(c.ops.begin(), c.ops.end(),
                      [](const TriggeredOp& op) { return !op.fired; }));
  }
  return n;
}

}  // namespace gputn::core
