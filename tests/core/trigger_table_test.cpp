#include "core/trigger_table.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/random.hpp"

namespace gputn::core {
namespace {

nic::PutDesc dummy_put(int target = 1) {
  nic::PutDesc p;
  p.target = target;
  p.bytes = 8;
  return p;
}

TEST(TriggerTable, FiresWhenCounterReachesThreshold) {
  TriggerTable t(TriggerTableConfig{});
  EXPECT_FALSE(t.register_put(/*tag=*/1, /*threshold=*/3, dummy_put()));
  EXPECT_FALSE(t.write(1));
  EXPECT_FALSE(t.write(1)) << "must not fire below threshold";
  EXPECT_EQ(t.orphans_created(), 0u) << "registration created the entry";
  EXPECT_TRUE(t.write(1));
  EXPECT_EQ(t.size(), 0u) << "the fired entry leaves the table";
}

TEST(TriggerTable, DoesNotRefireOnExtraWrites) {
  TriggerTable t(TriggerTableConfig{});
  t.register_put(1, 1, dummy_put());
  int fired = 0;
  for (int i = 0; i < 10; ++i) fired += t.write(1).has_value();
  EXPECT_EQ(fired, 1);
}

TEST(TriggerTable, RelaxedSyncOrphanThenRegister) {
  // §3.2: GPU triggers before CPU posts. The write allocates an orphan
  // entry; registration with threshold already met fires immediately.
  TriggerTable t(TriggerTableConfig{});
  EXPECT_FALSE(t.write(42));
  EXPECT_FALSE(t.write(42)) << "no put armed yet";
  EXPECT_EQ(t.orphans_created(), 1u);
  EXPECT_EQ(t.count(42), 2u);

  EXPECT_TRUE(t.register_put(42, 2, dummy_put()))
      << "threshold already met at registration";
  EXPECT_EQ(t.size(), 0u);
}

TEST(TriggerTable, RelaxedSyncPartialCountThenRegister) {
  TriggerTable t(TriggerTableConfig{});
  t.write(7);  // count = 1
  EXPECT_FALSE(t.register_put(7, 3, dummy_put()));
  EXPECT_FALSE(t.write(7));  // 2
  EXPECT_TRUE(t.write(7));   // 3 -> fire
}

TEST(TriggerTable, IndependentTagsDoNotInterfere) {
  TriggerTable t(TriggerTableConfig{});
  t.register_put(1, 1, dummy_put(1));
  t.register_put(2, 1, dummy_put(2));
  std::optional<nic::PutDesc> fired = t.write(1);
  ASSERT_TRUE(fired);
  EXPECT_EQ(fired->target, 1);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.count(2), 0u);
}

TEST(TriggerTable, SecondPutOnALiveTagThrows) {
  TriggerTable t(TriggerTableConfig{});
  t.register_put(5, 2, dummy_put(1));
  EXPECT_THROW(t.register_put(5, 1, dummy_put(2)), std::logic_error);
  // The throw changed nothing: the first put fires at its own threshold.
  EXPECT_FALSE(t.write(5));
  std::optional<nic::PutDesc> fired = t.write(5);
  ASSERT_TRUE(fired);
  EXPECT_EQ(fired->target, 1);
  // Once its put has fired, a tag takes a new one; so does an orphan.
  EXPECT_NO_THROW(t.register_put(5, 1, dummy_put(3)));
  t.write(6);
  EXPECT_NO_THROW(t.register_put(6, 2, dummy_put(4)));
}

TEST(TriggerTable, AssociativeCapacityEnforced) {
  TriggerTableConfig cfg;
  cfg.lookup = LookupKind::kAssociative;
  cfg.associative_entries = 4;
  TriggerTable t(cfg);
  for (Tag tag = 0; tag < 4; ++tag) t.register_put(tag, 1, dummy_put());
  EXPECT_THROW(t.register_put(99, 1, dummy_put()), std::runtime_error);
  EXPECT_THROW(t.write(100), std::runtime_error);
  // A fired entry frees its slot.
  EXPECT_TRUE(t.write(0));
  EXPECT_NO_THROW(t.write(100));
}

TEST(TriggerTable, HashAndListVariantsAreUnbounded) {
  for (auto kind : {LookupKind::kHash, LookupKind::kLinkedList}) {
    TriggerTableConfig cfg;
    cfg.lookup = kind;
    cfg.associative_entries = 2;
    TriggerTable t(cfg);
    for (Tag tag = 0; tag < 100; ++tag) t.register_put(tag, 1, dummy_put());
    EXPECT_EQ(t.size(), 100u);
  }
}

TEST(TriggerTable, LookupCostsModelHardware) {
  TriggerTableConfig cfg;
  cfg.lookup = LookupKind::kLinkedList;
  cfg.list_hop_cost = sim::ns(6);
  TriggerTable t(cfg);
  for (Tag tag = 0; tag < 10; ++tag) t.register_put(tag, 1, dummy_put());
  // First entry: one hop. Last entry: ten hops.
  EXPECT_EQ(t.probe_cost(0), sim::ns(6));
  EXPECT_EQ(t.probe_cost(9), sim::ns(60));

  TriggerTableConfig assoc;
  assoc.lookup = LookupKind::kAssociative;
  assoc.associative_cost = sim::ns(4);
  TriggerTable t2(assoc);
  t2.register_put(0, 1, dummy_put());
  EXPECT_EQ(t2.probe_cost(0), sim::ns(4));
}

TEST(TriggerTable, LinkedListEntriesMoveUpAsOneFires) {
  TriggerTableConfig cfg;
  cfg.lookup = LookupKind::kLinkedList;
  cfg.list_hop_cost = sim::ns(6);
  TriggerTable t(cfg);
  for (Tag tag = 0; tag < 4; ++tag) t.register_put(tag, 1, dummy_put());
  EXPECT_EQ(t.probe_cost(3), sim::ns(24));
  ASSERT_TRUE(t.write(1));
  // Tag 1 left the list: the entry ahead of it stays, the two behind it
  // move up a place, and a miss walks the three that are left.
  EXPECT_EQ(t.probe_cost(0), sim::ns(6));
  EXPECT_EQ(t.probe_cost(2), sim::ns(12));
  EXPECT_EQ(t.probe_cost(3), sim::ns(18));
  EXPECT_EQ(t.probe_cost(1), sim::ns(18));
  // A new entry goes to the back.
  t.write(9);
  EXPECT_EQ(t.probe_cost(9), sim::ns(24));
}

// Reference model of the table in its plainest form: entries in one vector
// in creation order (an entry's list position is its index), found by a
// linear scan and erased from the vector when their put fires. It keeps
// none of the table's indexing, so an indexing bug cannot cancel out.
class ReferenceTable {
 public:
  explicit ReferenceTable(TriggerTableConfig cfg) : cfg_(cfg) {}

  std::optional<std::uint64_t> count(Tag tag) const {
    std::size_t i = index_of(tag);
    if (i == entries_.size()) return std::nullopt;
    return entries_[i].count;
  }

  sim::Tick probe_cost(Tag tag) const {
    std::size_t i = index_of(tag);
    if (i == entries_.size()) return cost(entries_.empty() ? 0 : i - 1);
    return cost(i);
  }

  std::optional<nic::PutDesc> write(Tag tag) {
    std::size_t i = index_of(tag);
    if (i == entries_.size()) {
      add(tag);
      ++orphans_created_;
    }
    ++entries_[i].count;
    return fire_if_met(i);
  }

  std::optional<nic::PutDesc> register_put(Tag tag, std::uint64_t threshold,
                                           nic::PutDesc put) {
    std::size_t i = index_of(tag);
    if (i == entries_.size()) {
      add(tag);
    } else if (entries_[i].put) {
      throw std::logic_error("tag holds a put");
    }
    entries_[i].threshold = threshold;
    entries_[i].put = put;
    return fire_if_met(i);
  }

  std::size_t size() const { return entries_.size(); }
  std::uint64_t orphans_created() const { return orphans_created_; }

 private:
  struct Entry {
    Tag tag = 0;
    std::uint64_t count = 0;
    std::uint64_t threshold = 0;
    std::optional<nic::PutDesc> put;
  };

  std::size_t index_of(Tag tag) const {
    std::size_t i = 0;
    while (i < entries_.size() && entries_[i].tag != tag) ++i;
    return i;
  }

  sim::Tick cost(std::size_t pos) const {
    switch (cfg_.lookup) {
      case LookupKind::kAssociative:
        return cfg_.associative_cost;
      case LookupKind::kHash:
        return cfg_.hash_cost;
      case LookupKind::kLinkedList:
        return static_cast<sim::Tick>(pos + 1) * cfg_.list_hop_cost;
    }
    return 0;
  }

  void add(Tag tag) {
    if (cfg_.lookup == LookupKind::kAssociative &&
        static_cast<int>(entries_.size()) >= cfg_.associative_entries) {
      throw std::runtime_error("associative capacity");
    }
    entries_.push_back(Entry{tag, 0, 0, std::nullopt});
  }

  std::optional<nic::PutDesc> fire_if_met(std::size_t i) {
    if (!entries_[i].put || entries_[i].count < entries_[i].threshold) {
      return std::nullopt;
    }
    std::optional<nic::PutDesc> put = entries_[i].put;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    return put;
  }

  TriggerTableConfig cfg_;
  std::vector<Entry> entries_;
  std::uint64_t orphans_created_ = 0;
};

/// What one call did: the target of the put it fired, "-" if none fired,
/// or the kind of exception it threw.
template <typename F>
std::string outcome(F&& f) {
  try {
    std::optional<nic::PutDesc> put = f();
    return put ? std::to_string(put->target) : "-";
  } catch (const std::logic_error&) {
    return "logic_error";
  } catch (const std::runtime_error&) {
    return "runtime_error";
  }
}

/// Drives a TriggerTable and the reference with the same calls, checking
/// after each that both did the same thing (fired the same put, fired
/// nothing, or threw the same kind of exception) and that every
/// observable agrees.
class Lockstep {
 public:
  Lockstep(TriggerTableConfig cfg, Tag universe)
      : table_(cfg), ref_(cfg), universe_(universe) {}

  void register_put(Tag tag, std::uint64_t threshold) {
    nic::PutDesc put = dummy_put(next_id_++);
    check("register_put",
          outcome([&] { return table_.register_put(tag, threshold, put); }),
          outcome([&] { return ref_.register_put(tag, threshold, put); }));
  }

  /// One store of `tag`, as the trigger unit makes per FIFO entry.
  void write(Tag tag) {
    check("write", outcome([&] { return table_.write(tag); }),
          outcome([&] { return ref_.write(tag); }));
  }

  /// How many calls ended each way: "fire", "-", "logic_error" and
  /// "runtime_error".
  const std::map<std::string, int>& seen() const { return seen_; }

 private:
  void check(const char* what, const std::string& got,
             const std::string& want) {
    ++step_;
    SCOPED_TRACE(std::string(what) + " at step " + std::to_string(step_));
    ASSERT_EQ(got, want);
    ++seen_[got.find_first_not_of("0123456789") == std::string::npos
                ? "fire"
                : got];
    ASSERT_EQ(table_.size(), ref_.size());
    ASSERT_EQ(table_.orphans_created(), ref_.orphans_created());
    // Tags past the universe are always absent: a miss's cost.
    for (Tag tag = 0; tag < universe_ + 2; ++tag) {
      ASSERT_EQ(table_.probe_cost(tag), ref_.probe_cost(tag)) << "tag " << tag;
      ASSERT_EQ(table_.count(tag), ref_.count(tag)) << "tag " << tag;
    }
  }

  TriggerTable table_;
  ReferenceTable ref_;
  Tag universe_;
  std::map<std::string, int> seen_;
  int next_id_ = 0;
  int step_ = 0;
};

TEST(TriggerTable, RandomizedMatchesLinearScanReference) {
  constexpr Tag kTags = 10;
  for (auto kind : {LookupKind::kAssociative, LookupKind::kHash,
                    LookupKind::kLinkedList}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("lookup " + std::to_string(static_cast<int>(kind)) +
                   " seed " + std::to_string(seed));
      TriggerTableConfig cfg;
      cfg.lookup = kind;
      cfg.associative_entries = 6;  // fewer than kTags: capacity throws
      Lockstep run(cfg, kTags);
      sim::Rng rng(seed);
      for (int i = 0; i < 600 && !::testing::Test::HasFatalFailure(); ++i) {
        auto tag = static_cast<Tag>(rng.uniform_int(0, kTags - 1));
        if (rng.uniform() < 0.35) {
          run.register_put(tag,
                           static_cast<std::uint64_t>(rng.uniform_int(1, 4)));
        } else {
          run.write(tag);
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
      // Every way a call can end came up.
      EXPECT_GT(run.seen().count("fire"), 0u);
      EXPECT_GT(run.seen().count("-"), 0u);
      EXPECT_GT(run.seen().count("logic_error"), 0u);
      EXPECT_EQ(run.seen().count("runtime_error") > 0,
                kind == LookupKind::kAssociative);
    }
  }
}

// Property sweep: for any (threshold, writes >= threshold) the put fires
// exactly once; for writes < threshold it never fires.
class ThresholdProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ThresholdProperty, ExactlyOnceSemantics) {
  auto [threshold, writes] = GetParam();
  TriggerTable t(TriggerTableConfig{});
  t.register_put(1, static_cast<std::uint64_t>(threshold), dummy_put());
  int fired = 0;
  for (int i = 0; i < writes; ++i) fired += t.write(1).has_value();
  EXPECT_EQ(fired, writes >= threshold ? 1 : 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThresholdProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 64, 256),
                       ::testing::Values(0, 1, 2, 7, 64, 300)));

// Property: ordering of put registration vs. counter writes never changes
// the total number of fires (relaxed synchronization invariant, §3.2).
class InterleavingProperty : public ::testing::TestWithParam<int> {};

TEST_P(InterleavingProperty, FireCountInvariantUnderReordering) {
  const int threshold = 4;
  const int total_writes = 6;
  int writes_before_register = GetParam();

  TriggerTable t(TriggerTableConfig{});
  int fired = 0;
  for (int i = 0; i < writes_before_register; ++i) {
    fired += t.write(3).has_value();
  }
  fired += t.register_put(3, threshold, dummy_put()).has_value();
  for (int i = writes_before_register; i < total_writes; ++i) {
    fired += t.write(3).has_value();
  }

  EXPECT_EQ(fired, 1) << "exactly-once regardless of post/trigger interleaving";
}

INSTANTIATE_TEST_SUITE_P(AllInterleavings, InterleavingProperty,
                         ::testing::Range(0, 7));

}  // namespace
}  // namespace gputn::core
