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

sim::Tick TriggerTable::probe_cost(Tag tag) const {
  // Only the linked list's cost depends on where the entry is.
  if (config_.lookup != LookupKind::kLinkedList) return lookup_cost(0);
  auto it = entries_.find(tag);
  if (it == entries_.end()) {
    return lookup_cost(entries_.empty() ? 0 : entries_.size() - 1);
  }
  const std::uint64_t seq = it->second.seq;
  auto ahead = std::count_if(entries_.begin(), entries_.end(),
                             [seq](const auto& e) { return e.second.seq < seq; });
  return lookup_cost(static_cast<std::size_t>(ahead));
}

std::pair<TriggerTable::Map::iterator, bool> TriggerTable::insert(Tag tag) {
  auto [it, created] = entries_.try_emplace(tag);
  if (created) {
    if (config_.lookup == LookupKind::kAssociative &&
        static_cast<int>(entries_.size()) > config_.associative_entries) {
      entries_.erase(it);
      throw std::runtime_error(
          "trigger table: associative lookup capacity exceeded (" +
          std::to_string(config_.associative_entries) + " entries)");
    }
    it->second.seq = next_seq_++;
  }
  return {it, created};
}

std::optional<nic::PutDesc> TriggerTable::fire_if_met(Map::iterator it) {
  Entry& e = it->second;
  if (!e.put || e.count < e.threshold) return std::nullopt;
  std::optional<nic::PutDesc> put = std::move(e.put);
  entries_.erase(it);
  return put;
}

std::optional<nic::PutDesc> TriggerTable::write(Tag tag) {
  auto [it, created] = insert(tag);
  if (created) ++orphans_created_;
  ++it->second.count;
  return fire_if_met(it);
}

std::optional<nic::PutDesc> TriggerTable::register_put(Tag tag,
                                                       std::uint64_t threshold,
                                                       nic::PutDesc put) {
  auto it = insert(tag).first;
  Entry& e = it->second;
  if (e.put) {
    throw std::logic_error("trigger table: tag " + std::to_string(tag) +
                           " already holds a put that has not fired");
  }
  e.threshold = threshold;
  e.put = std::move(put);
  // §3.2: if stores already brought the count to the threshold, the put
  // fires on registration.
  return fire_if_met(it);
}

std::optional<std::uint64_t> TriggerTable::count(Tag tag) const {
  auto it = entries_.find(tag);
  if (it == entries_.end()) return std::nullopt;
  return it->second.count;
}

}  // namespace gputn::core
