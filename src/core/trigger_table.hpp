// Trigger list / trigger entries (§3.1, Figure 5) with the lookup-strategy
// alternatives discussed in §3.3.
//
// A trigger *counter* collects GPU writes of a tag; *triggered operations*
// reference a tag and fire when that tag's counter reaches their threshold.
// The paper's base design bundles the two (one op per entry); we keep them
// separable — exactly like Portals 4 counting events — which expresses the
// paper's mixed granularities (§4.2.3) and multi-round schedules naturally
// while reducing to the paper's entry when one op is registered per tag.
//
// §3.3 considers three hardware lookup structures for tag matching: a linked
// list (as in the Portals spec / BXI), a bounded associative array (the
// paper's prototype: <= 16 simultaneous entries), and a hash table. The
// table models each variant's per-lookup cost so the ablation bench can
// compare them.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "nic/nic.hpp"
#include "sim/units.hpp"

namespace gputn::core {

using Tag = std::uint64_t;

/// How the NIC finds the trigger entry for a written tag (§3.3).
enum class LookupKind {
  kAssociative,  ///< bounded CAM: constant-time, limited entries (prototype)
  kHash,         ///< hash table: near-constant, unbounded
  kLinkedList,   ///< linked list walk: O(active entries), unbounded
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

/// A registered operation waiting on a counter (Figure 5). Besides a
/// network command, an op may carry *chained increments*: counters bumped
/// when it fires (Portals 4 triggered CTInc) — the mechanism behind fully
/// NIC-offloaded operation sequences (§6, Underwood et al.). An op with no
/// command and a non-empty chain is a pure counter-to-counter link.
struct TriggeredOp {
  Tag tag = 0;
  std::uint64_t threshold = 0;
  std::optional<nic::Command> op;
  bool fired = false;
  std::vector<Tag> chain;  ///< counters to increment on firing
};

/// A counting entry: number of tag writes observed (Figure 5's Counter),
/// and the ops waiting on the tag. The table keeps one per live tag.
struct TriggerCounter {
  Tag tag = 0;
  std::uint64_t count = 0;
  /// True when created by a GPU write that preceded host registration
  /// (relaxed synchronization, §3.2).
  bool orphan = false;

 private:
  friend class TriggerTable;
  /// Place in the modelled list: live counters in creation order.
  std::size_t pos = 0;
  std::vector<TriggeredOp> ops;  ///< in registration order
};

/// The trigger list plus lookup-cost model. Pure data structure: the timed
/// agent driving it lives in triggered.hpp.
class TriggerTable {
 public:
  explicit TriggerTable(TriggerTableConfig config);

  /// Find the counter for `tag`, creating an orphan if absent (§3.2).
  /// Returns the counter and the modelled lookup cost.
  struct LookupResult {
    TriggerCounter* counter;
    sim::Tick cost;
    bool created;
  };
  LookupResult find_or_create(Tag tag);

  /// Find without creating (host-side queries). Cost not modelled.
  TriggerCounter* find(Tag tag);

  /// Modelled hardware cost of looking up `tag` right now (a miss walks the
  /// whole list in the linked-list variant). Lets the timed agent pay the
  /// cost *before* mutating the table, so entries released concurrently
  /// cannot dangle across the delay.
  sim::Tick probe_cost(Tag tag) const;

  /// Register a triggered op. If the tag's counter has already reached the
  /// threshold (a GPU triggered before the CPU posted — relaxed
  /// synchronization, §3.2), the op is appended to `fired` for immediate
  /// execution.
  void register_op(TriggeredOp op, std::vector<nic::Command>& fired);

  /// Increment `tag`'s counter (the tag-write side); appends any ops whose
  /// thresholds are now met to `fired` in registration order. Chained
  /// increments cascade immediately (data-structure level); if
  /// `chain_hops` is non-null it accumulates the number of cascade hops so
  /// the timed agent can charge per-hop hardware cost.
  void increment(TriggerCounter& counter, std::vector<nic::Command>& fired,
                 int* chain_hops = nullptr);

  /// Remove a counter and all ops referencing it (host reclaim).
  void release(Tag tag);

  int active_counters() const { return static_cast<int>(counters_.size()); }
  int pending_ops() const;
  int total_ops() const { return live_ops_; }
  std::uint64_t orphans_created() const { return orphans_created_; }
  std::uint64_t ops_fired() const { return ops_fired_; }

  const TriggerTableConfig& config() const { return config_; }

 private:
  sim::Tick lookup_cost(std::size_t position_in_list) const;
  /// The counter for `tag`, created with `orphan` if absent (one lookup).
  LookupResult find_or_insert(Tag tag, bool orphan);
  void collect_ready(TriggerCounter& counter, std::vector<nic::Command>& fired,
                     int* chain_hops, int depth);
  /// Marks `op` fired, emits its command and bumps its chain; the chained
  /// counters are scanned at `chain_depth`.
  void fire_op(TriggeredOp& op, std::vector<nic::Command>& fired,
               int* chain_hops, int chain_depth);

  TriggerTableConfig config_;
  // Node-based, so a TriggerCounter* stays valid until its tag's release.
  // The modelled list order is each counter's `pos`, not the map's.
  std::unordered_map<Tag, TriggerCounter> counters_;
  int live_ops_ = 0;
  std::uint64_t orphans_created_ = 0;
  std::uint64_t ops_fired_ = 0;
};

}  // namespace gputn::core
