#include "core/trigger_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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
  std::vector<nic::Command> fired;
  t.register_op(TriggeredOp{/*tag=*/1, /*threshold=*/3, dummy_put(), false, {}},
                fired);
  EXPECT_TRUE(fired.empty());

  auto r = t.find_or_create(1);
  EXPECT_FALSE(r.created);  // registration created the counter
  t.increment(*r.counter, fired);
  t.increment(*r.counter, fired);
  EXPECT_TRUE(fired.empty()) << "must not fire below threshold";
  t.increment(*r.counter, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(t.ops_fired(), 1u);
}

TEST(TriggerTable, DoesNotRefireOnExtraWrites) {
  TriggerTable t(TriggerTableConfig{});
  std::vector<nic::Command> fired;
  t.register_op(TriggeredOp{1, 1, dummy_put(), false, {}}, fired);
  auto r = t.find_or_create(1);
  for (int i = 0; i < 10; ++i) t.increment(*r.counter, fired);
  EXPECT_EQ(fired.size(), 1u);
}

TEST(TriggerTable, RelaxedSyncOrphanThenRegister) {
  // §3.2: GPU triggers before CPU posts. The write allocates an orphan
  // counter; registration with threshold already met fires immediately.
  TriggerTable t(TriggerTableConfig{});
  std::vector<nic::Command> fired;

  auto r = t.find_or_create(42);
  EXPECT_TRUE(r.created);
  EXPECT_TRUE(r.counter->orphan);
  t.increment(*r.counter, fired);
  t.increment(*r.counter, fired);
  EXPECT_TRUE(fired.empty()) << "no op armed yet";
  EXPECT_EQ(t.orphans_created(), 1u);

  t.register_op(TriggeredOp{42, 2, dummy_put(), false, {}}, fired);
  ASSERT_EQ(fired.size(), 1u) << "threshold already met at registration";
}

TEST(TriggerTable, RelaxedSyncPartialCountThenRegister) {
  TriggerTable t(TriggerTableConfig{});
  std::vector<nic::Command> fired;
  auto r = t.find_or_create(7);
  t.increment(*r.counter, fired);  // count = 1
  t.register_op(TriggeredOp{7, 3, dummy_put(), false, {}}, fired);
  EXPECT_TRUE(fired.empty());
  t.increment(*r.counter, fired);  // 2
  EXPECT_TRUE(fired.empty());
  t.increment(*r.counter, fired);  // 3 -> fire
  EXPECT_EQ(fired.size(), 1u);
}

TEST(TriggerTable, MultipleOpsOnOneCounterFireAtTheirThresholds) {
  // Multi-round schedules: ops at thresholds 1, 2, 3 on the same tag.
  TriggerTable t(TriggerTableConfig{});
  std::vector<nic::Command> fired;
  for (std::uint64_t th = 1; th <= 3; ++th) {
    t.register_op(TriggeredOp{5, th, dummy_put(static_cast<int>(th)), false, {}},
                  fired);
  }
  auto r = t.find_or_create(5);
  for (int i = 0; i < 3; ++i) {
    fired.clear();
    t.increment(*r.counter, fired);
    ASSERT_EQ(fired.size(), 1u) << "exactly one op per threshold crossing";
    EXPECT_EQ(std::get<nic::PutDesc>(fired[0]).target, i + 1);
  }
}

TEST(TriggerTable, IndependentTagsDoNotInterfere) {
  TriggerTable t(TriggerTableConfig{});
  std::vector<nic::Command> fired;
  t.register_op(TriggeredOp{1, 1, dummy_put(1), false, {}}, fired);
  t.register_op(TriggeredOp{2, 1, dummy_put(2), false, {}}, fired);
  auto r1 = t.find_or_create(1);
  t.increment(*r1.counter, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(std::get<nic::PutDesc>(fired[0]).target, 1);
  EXPECT_EQ(t.pending_ops(), 1);
}

TEST(TriggerTable, ReleaseRemovesCounterAndOps) {
  TriggerTable t(TriggerTableConfig{});
  std::vector<nic::Command> fired;
  t.register_op(TriggeredOp{9, 5, dummy_put(), false, {}}, fired);
  EXPECT_EQ(t.active_counters(), 1);
  t.release(9);
  EXPECT_EQ(t.active_counters(), 0);
  EXPECT_EQ(t.total_ops(), 0);
  // A later write re-creates an orphan rather than touching freed state.
  auto r = t.find_or_create(9);
  EXPECT_TRUE(r.created);
}

TEST(TriggerTable, AssociativeCapacityEnforced) {
  TriggerTableConfig cfg;
  cfg.lookup = LookupKind::kAssociative;
  cfg.associative_entries = 4;
  TriggerTable t(cfg);
  std::vector<nic::Command> fired;
  for (std::uint64_t tag = 0; tag < 4; ++tag) {
    t.register_op(TriggeredOp{tag, 1, dummy_put(), false, {}}, fired);
  }
  EXPECT_THROW(t.register_op(TriggeredOp{99, 1, dummy_put(), false, {}}, fired),
               std::runtime_error);
  EXPECT_THROW(t.find_or_create(100), std::runtime_error);
  // Releasing frees capacity.
  t.release(0);
  EXPECT_NO_THROW(t.find_or_create(100));
}

TEST(TriggerTable, HashAndListVariantsAreUnbounded) {
  for (auto kind : {LookupKind::kHash, LookupKind::kLinkedList}) {
    TriggerTableConfig cfg;
    cfg.lookup = kind;
    cfg.associative_entries = 2;
    TriggerTable t(cfg);
    std::vector<nic::Command> fired;
    for (std::uint64_t tag = 0; tag < 100; ++tag) {
      t.register_op(TriggeredOp{tag, 1, dummy_put(), false, {}}, fired);
    }
    EXPECT_EQ(t.active_counters(), 100);
  }
}

TEST(TriggerTable, LookupCostsModelHardware) {
  TriggerTableConfig cfg;
  cfg.lookup = LookupKind::kLinkedList;
  cfg.list_hop_cost = sim::ns(6);
  TriggerTable t(cfg);
  std::vector<nic::Command> fired;
  for (std::uint64_t tag = 0; tag < 10; ++tag) {
    t.register_op(TriggeredOp{tag, 1, dummy_put(), false, {}}, fired);
  }
  // First entry: one hop. Last entry: ten hops.
  EXPECT_EQ(t.probe_cost(0), sim::ns(6));
  EXPECT_EQ(t.probe_cost(9), sim::ns(60));

  TriggerTableConfig assoc;
  assoc.lookup = LookupKind::kAssociative;
  assoc.associative_cost = sim::ns(4);
  TriggerTable t2(assoc);
  t2.register_op(TriggeredOp{0, 1, dummy_put(), false, {}}, fired);
  EXPECT_EQ(t2.probe_cost(0), sim::ns(4));
}

// Reference model of the table in its plainest form: counters in creation
// order (a counter's list position is its index), every op in one vector
// in registration order, and a scan of all of them per increment. It keeps
// none of the table's indexing, so an indexing bug cannot cancel out.
class ReferenceTable {
 public:
  explicit ReferenceTable(TriggerTableConfig cfg) : cfg_(cfg) {}

  std::uint64_t* count_of(Tag tag) {
    for (Counter& c : counters_) {
      if (c.tag == tag) return &c.count;
    }
    return nullptr;
  }
  bool orphan(Tag tag) const {
    for (const Counter& c : counters_) {
      if (c.tag == tag) return c.orphan;
    }
    return false;
  }

  sim::Tick probe_cost(Tag tag) const {
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      if (counters_[i].tag == tag) return cost(i);
    }
    return cost(counters_.empty() ? 0 : counters_.size() - 1);
  }

  void find_or_create(Tag tag) {
    if (count_of(tag) == nullptr) {
      add_counter(tag, /*orphan=*/true);
      ++orphans_created_;
    }
  }

  void register_op(TriggeredOp op, std::vector<nic::Command>& fired) {
    if (count_of(op.tag) == nullptr) add_counter(op.tag, /*orphan=*/false);
    if (*count_of(op.tag) >= op.threshold) fire(op, fired, nullptr, 0);
    ops_.push_back(std::move(op));
  }

  void increment(Tag tag, std::vector<nic::Command>& fired, int* hops) {
    std::uint64_t count = ++*count_of(tag);
    collect(tag, count, fired, hops, 0);
  }

  void release(Tag tag) {
    std::erase_if(counters_, [tag](const Counter& c) { return c.tag == tag; });
    std::erase_if(ops_, [tag](const TriggeredOp& op) { return op.tag == tag; });
  }

  int active_counters() const { return static_cast<int>(counters_.size()); }
  int pending_ops() const {
    return static_cast<int>(std::count_if(
        ops_.begin(), ops_.end(),
        [](const TriggeredOp& op) { return !op.fired; }));
  }
  int total_ops() const { return static_cast<int>(ops_.size()); }
  std::uint64_t orphans_created() const { return orphans_created_; }
  std::uint64_t ops_fired() const { return ops_fired_; }

 private:
  struct Counter {
    Tag tag;
    std::uint64_t count;
    bool orphan;
  };

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

  void add_counter(Tag tag, bool orphan) {
    if (cfg_.lookup == LookupKind::kAssociative &&
        static_cast<int>(counters_.size()) >= cfg_.associative_entries) {
      throw std::runtime_error("associative capacity");
    }
    counters_.push_back(Counter{tag, 0, orphan});
  }

  // Nothing appends to ops_ during a scan, so `op` stays put under it.
  void fire(TriggeredOp& op, std::vector<nic::Command>& fired, int* hops,
            int chain_depth) {
    op.fired = true;
    ++ops_fired_;
    if (op.op.has_value()) fired.push_back(*op.op);
    for (Tag next : op.chain) {
      if (hops != nullptr) ++*hops;
      find_or_create(next);
      std::uint64_t count = ++*count_of(next);
      collect(next, count, fired, hops, chain_depth);
    }
  }

  void collect(Tag tag, std::uint64_t count, std::vector<nic::Command>& fired,
               int* hops, int depth) {
    if (depth > 64) throw std::runtime_error("trigger chain depth");
    for (std::size_t k = 0; k < ops_.size(); ++k) {
      TriggeredOp& op = ops_[k];
      if (op.tag != tag || op.fired || count < op.threshold) continue;
      fire(op, fired, hops, depth + 1);
    }
  }

  TriggerTableConfig cfg_;
  std::vector<Counter> counters_;
  std::vector<TriggeredOp> ops_;
  std::uint64_t orphans_created_ = 0;
  std::uint64_t ops_fired_ = 0;
};

/// Runs `f` and reports whether it threw std::runtime_error.
template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

std::vector<int> targets(const std::vector<nic::Command>& cmds) {
  std::vector<int> out;
  for (const nic::Command& c : cmds) {
    out.push_back(std::get<nic::PutDesc>(c).target);
  }
  return out;
}

/// Drives a TriggerTable and the reference with the same calls, checking
/// after each that both threw or neither did, that they fired the same
/// commands in the same order with the same chain hops, and that every
/// observable agrees.
class Lockstep {
 public:
  Lockstep(TriggerTableConfig cfg, Tag universe)
      : table_(cfg), ref_(cfg), universe_(universe) {}

  void register_op(Tag tag, std::uint64_t threshold, bool with_cmd,
                   std::vector<Tag> chain) {
    std::optional<nic::Command> cmd;
    if (with_cmd) cmd = dummy_put(next_id_++);
    TriggeredOp op{tag, threshold, cmd, false, std::move(chain)};
    bool a = throws([&] { table_.register_op(op, fired_); });
    bool b = throws([&] { ref_.register_op(op, ref_fired_); });
    check("register_op", a, b, 0, 0);
  }

  /// find_or_create + increment, as the trigger unit does per store.
  /// Returns whether the step threw.
  bool write(Tag tag) {
    int hops = 0, ref_hops = 0;
    bool a = throws([&] {
      auto r = table_.find_or_create(tag);
      table_.increment(*r.counter, fired_, &hops);
    });
    bool b = throws([&] {
      ref_.find_or_create(tag);
      ref_.increment(tag, ref_fired_, &ref_hops);
    });
    check("write", a, b, hops, ref_hops);
    return a;
  }

  void release(Tag tag) {
    table_.release(tag);
    ref_.release(tag);
    check("release", false, false, 0, 0);
  }

 private:
  void check(const char* what, bool threw, bool ref_threw, int hops,
             int ref_hops) {
    ++step_;
    SCOPED_TRACE(std::string(what) + " at step " + std::to_string(step_));
    ASSERT_EQ(threw, ref_threw);
    ASSERT_EQ(hops, ref_hops);
    ASSERT_EQ(targets(fired_), targets(ref_fired_));
    ASSERT_EQ(table_.active_counters(), ref_.active_counters());
    ASSERT_EQ(table_.pending_ops(), ref_.pending_ops());
    ASSERT_EQ(table_.total_ops(), ref_.total_ops());
    ASSERT_EQ(table_.orphans_created(), ref_.orphans_created());
    ASSERT_EQ(table_.ops_fired(), ref_.ops_fired());
    // Tags past the universe are always absent: a miss's cost.
    for (Tag tag = 0; tag < universe_ + 2; ++tag) {
      ASSERT_EQ(table_.probe_cost(tag), ref_.probe_cost(tag)) << "tag " << tag;
      TriggerCounter* c = table_.find(tag);
      std::uint64_t* ref_count = ref_.count_of(tag);
      ASSERT_EQ(c != nullptr, ref_count != nullptr) << "tag " << tag;
      if (c == nullptr) continue;
      ASSERT_EQ(c->count, *ref_count) << "tag " << tag;
      ASSERT_EQ(c->orphan, ref_.orphan(tag)) << "tag " << tag;
    }
  }

  TriggerTable table_;
  ReferenceTable ref_;
  Tag universe_;
  std::vector<nic::Command> fired_, ref_fired_;
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
      auto tag = [&] {
        return static_cast<Tag>(rng.uniform_int(0, kTags - 1));
      };
      auto random_steps = [&](int n) {
        for (int i = 0; i < n && !::testing::Test::HasFatalFailure(); ++i) {
          double u = rng.uniform();
          if (u < 0.35) {
            std::vector<Tag> chain;
            if (rng.bernoulli(0.3)) {
              for (auto k = rng.uniform_int(1, 2); k > 0; --k) {
                chain.push_back(tag());
              }
            }
            Tag t = tag();
            auto threshold = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
            bool with_cmd = rng.bernoulli(0.8);
            run.register_op(t, threshold, with_cmd, std::move(chain));
          } else if (u < 0.9) {
            run.write(tag());
          } else {
            // Released tags come back: by a write as orphans, or by a
            // registration.
            run.release(tag());
          }
        }
      };
      random_steps(400);
      if (::testing::Test::HasFatalFailure()) return;
      // A cycle of ops that keep feeding each other trips the depth check
      // part-way through a cascade; both must stop at the same place. Each
      // hop into tag 1 first passes tag 2, which has no ops: the check
      // comes before anything else a hop does.
      for (Tag t = 0; t < kTags; ++t) run.release(t);
      run.register_op(0, 1, true, {2, 1});
      for (std::uint64_t th = 2; th < 80; ++th) {
        run.register_op(0, th, true, {2, 1});
        run.register_op(1, th - 1, true, {0});
      }
      EXPECT_TRUE(run.write(0)) << "the depth-64 check never ran";
      if (::testing::Test::HasFatalFailure()) return;
      random_steps(200);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Property sweep: for any (threshold, writes >= threshold) the op fires
// exactly once; for writes < threshold it never fires.
class ThresholdProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ThresholdProperty, ExactlyOnceSemantics) {
  auto [threshold, writes] = GetParam();
  TriggerTable t(TriggerTableConfig{});
  std::vector<nic::Command> fired;
  t.register_op(
      TriggeredOp{1, static_cast<std::uint64_t>(threshold), dummy_put(), false, {}},
      fired);
  auto r = t.find_or_create(1);
  for (int i = 0; i < writes; ++i) t.increment(*r.counter, fired);
  if (writes >= threshold) {
    EXPECT_EQ(fired.size(), 1u);
  } else {
    EXPECT_TRUE(fired.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThresholdProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 64, 256),
                       ::testing::Values(0, 1, 2, 7, 64, 300)));

// Property: ordering of op registration vs. counter writes never changes the
// total number of fires (relaxed synchronization invariant, §3.2).
class InterleavingProperty : public ::testing::TestWithParam<int> {};

TEST_P(InterleavingProperty, FireCountInvariantUnderReordering) {
  const int threshold = 4;
  const int total_writes = 6;
  int writes_before_register = GetParam();

  TriggerTable t(TriggerTableConfig{});
  std::vector<nic::Command> fired;
  auto write = [&] {
    auto r = t.find_or_create(3);
    t.increment(*r.counter, fired);
  };
  for (int i = 0; i < writes_before_register; ++i) write();
  t.register_op(TriggeredOp{3, threshold, dummy_put(), false, {}}, fired);
  for (int i = writes_before_register; i < total_writes; ++i) write();

  EXPECT_EQ(fired.size(), 1u)
      << "exactly-once regardless of post/trigger interleaving";
}

INSTANTIATE_TEST_SUITE_P(AllInterleavings, InterleavingProperty,
                         ::testing::Range(0, 7));

}  // namespace
}  // namespace gputn::core
