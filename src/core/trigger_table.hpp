// Trigger list / trigger entries (§3.1, Figure 5) with the lookup-strategy
// alternatives discussed in §3.3.
//
// An entry is Figure 5's {network op, tag, counter, threshold}: stores of
// its tag count on it, and the store that brings the count to the
// threshold fires its put and takes the entry out of the table, so the
// table holds only what is live (the one-shot rule of Portals 4 triggered
// operations). A tag has one entry holding at most one put. A store that
// finds no entry creates an orphan, an entry with no put yet; a
// registration that finds its threshold already met fires at once
// (relaxed synchronization, §3.2).
//
// §3.3 considers three hardware lookup structures for tag matching: a linked
// list (as in the Portals spec / BXI), a bounded associative array (the
// paper's prototype: <= 16 simultaneous entries), and a hash table. The
// table models each variant's per-lookup cost so the ablation bench can
// compare them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "nic/nic.hpp"
#include "sim/units.hpp"

namespace gputn::core {

using Tag = std::uint64_t;

/// How the NIC finds the trigger entry for a written tag (§3.3).
enum class LookupKind {
  kAssociative,  ///< bounded CAM: constant-time, limited entries (prototype)
  kHash,         ///< hash table: near-constant, unbounded
  kLinkedList,   ///< linked list walk: O(live entries), unbounded
};

struct TriggerTableConfig {
  LookupKind lookup = LookupKind::kAssociative;
  /// Associative lookup capacity (the paper's prototype uses 16).
  int associative_entries = 16;
  /// Cost of one associative/CAM probe.
  sim::Tick associative_cost = sim::ns(4);
  /// Cost of a hash probe (hash + one bucket access).
  sim::Tick hash_cost = sim::ns(8);
  /// Cost per linked-list element traversed.
  sim::Tick list_hop_cost = sim::ns(6);
};

/// The trigger list plus lookup-cost model. Pure data structure: the timed
/// agent driving it lives in triggered.hpp.
class TriggerTable {
 public:
  explicit TriggerTable(TriggerTableConfig config);

  /// Modelled hardware cost of looking up `tag` right now. In the linked
  /// list an entry sits behind every live entry created before it, and a
  /// miss walks the whole list.
  sim::Tick probe_cost(Tag tag) const;

  /// A store of `tag`: counts on its entry, creating an orphan if there is
  /// none. Returns the entry's put if this store met its threshold; the
  /// entry leaves the table. Throws std::runtime_error if an orphan would
  /// exceed the associative capacity.
  std::optional<nic::PutDesc> write(Tag tag);

  /// Registers `put` to fire when `tag`'s count reaches `threshold`. If the
  /// count already meets it, returns the put at once and the entry leaves
  /// the table. Throws std::logic_error if `tag` holds a put that has not
  /// fired, and std::runtime_error past the associative capacity.
  std::optional<nic::PutDesc> register_put(Tag tag, std::uint64_t threshold,
                                           nic::PutDesc put);

  /// Live entries.
  std::size_t size() const { return entries_.size(); }
  /// `tag`'s count, or nullopt if it has no entry.
  std::optional<std::uint64_t> count(Tag tag) const;
  std::uint64_t orphans_created() const { return orphans_created_; }

 private:
  struct Entry {
    std::uint64_t count = 0;
    std::uint64_t threshold = 0;
    std::optional<nic::PutDesc> put;  ///< empty for an orphan
    std::uint64_t seq = 0;            ///< creation order
  };
  using Map = std::unordered_map<Tag, Entry>;

  sim::Tick lookup_cost(std::size_t position_in_list) const;
  /// `tag`'s entry and whether it was created; throws past the associative
  /// capacity.
  std::pair<Map::iterator, bool> insert(Tag tag);
  /// Erases the entry and returns its put if it holds one whose threshold
  /// is met.
  std::optional<nic::PutDesc> fire_if_met(Map::iterator it);

  TriggerTableConfig config_;
  Map entries_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t orphans_created_ = 0;
};

}  // namespace gputn::core
