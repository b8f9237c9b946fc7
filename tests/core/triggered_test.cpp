// Timed tests of the TriggeredNic extension wired to real NICs and fabric:
// MMIO trigger stores, counter/threshold firing, relaxed synchronization
// races resolved in "hardware" (§3.1, §3.2), and counting receive events
// that let an inbound put arm the next hop's put (§6).
#include "core/triggered.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "nic/nic.hpp"
#include "sim/simulator.hpp"

namespace gputn::core {
namespace {

struct Rig {
  explicit Rig(TriggeredNicConfig tcfg = {}) {
    for (int i = 0; i < 2; ++i) {
      mems.push_back(std::make_unique<mem::Memory>(1 << 22));
      nics.push_back(std::make_unique<nic::Nic>(sim, *mems.back(), fabric,
                                                nic::NicConfig{}));
      trigs.push_back(
          std::make_unique<TriggeredNic>(sim, *nics.back(), *mems.back(), tcfg));
    }
  }
  ~Rig() { sim.reap_processes(); }

  mem::Memory& mem(int i) { return *mems[i]; }
  nic::Nic& nic(int i) { return *nics[i]; }
  TriggeredNic& trig(int i) { return *trigs[i]; }
  /// Messages whose payload deposited at node i.
  std::uint64_t delivered(int i) const {
    const sim::Histogram* h =
        nics[i]->stats().find_histogram("lat.end_to_end");
    return h != nullptr ? h->count() : 0;
  }

  nic::PutDesc put_0_to_1(std::uint64_t value) {
    nic::PutDesc p;
    p.target = 1;
    p.local_addr = src = mem(0).alloc(64);
    p.bytes = 64;
    p.remote_addr = dst = mem(1).alloc(64);
    p.remote_flag = rflag = mem(1).alloc(8);
    mem(1).store<std::uint64_t>(rflag, 0);
    mem(0).store<std::uint64_t>(src, value);
    return p;
  }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::FabricConfig{}};
  std::vector<std::unique_ptr<mem::Memory>> mems;
  std::vector<std::unique_ptr<nic::Nic>> nics;
  std::vector<std::unique_ptr<TriggeredNic>> trigs;
  mem::Addr src = 0, dst = 0, rflag = 0;
};

TEST(TriggeredNic, MmioStoreFiresRegisteredPut) {
  Rig r;
  r.trig(0).register_put(/*tag=*/11, /*threshold=*/1, r.put_0_to_1(4242));
  // The "GPU": one posted store of the tag to the trigger address.
  r.mem(0).mmio_store(r.trig(0).trigger_address(), 11);
  r.sim.run();
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(r.rflag), 1u);
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(r.dst), 4242u);
  EXPECT_EQ(r.trig(0).triggers_received(), 1u);
}

TEST(TriggeredNic, ThresholdCollectsMultipleWrites) {
  Rig r;
  r.trig(0).register_put(3, /*threshold=*/5, r.put_0_to_1(1));
  for (int i = 0; i < 4; ++i) {
    r.mem(0).mmio_store(r.trig(0).trigger_address(), 3);
  }
  r.sim.run();
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(r.rflag), 0u) << "below threshold";
  r.mem(0).mmio_store(r.trig(0).trigger_address(), 3);
  r.sim.run();
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(r.rflag), 1u);
}

TEST(TriggeredNic, TriggerBeforePostFiresOnRegistration) {
  // Relaxed synchronization (§3.2): the GPU triggers first; the CPU posts
  // later; hardware resolves the race.
  Rig r;
  auto put = r.put_0_to_1(99);
  r.mem(0).mmio_store(r.trig(0).trigger_address(), 21);
  r.sim.run();
  EXPECT_EQ(r.trig(0).table().orphans_created(), 1u);
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(r.rflag), 0u);

  r.trig(0).register_put(21, 1, put);
  r.sim.run();
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(r.rflag), 1u);
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(r.dst), 99u);
}

TEST(TriggeredNic, RaceSweepAllInterleavingsDeliverExactlyOnce) {
  // Post at time T_post, trigger at time T_trig, for T_post before/equal/
  // after T_trig: the put must land exactly once in every interleaving.
  for (sim::Tick post_at : {0L, 50L, 100L, 150L, 500L}) {
    Rig r;
    auto put = r.put_0_to_1(7);
    r.sim.schedule_at(sim::ns(post_at), [&] {
      r.trig(0).register_put(1, 1, put);
    });
    r.sim.schedule_at(sim::ns(100), [&] {
      r.mem(0).mmio_store(r.trig(0).trigger_address(), 1);
    });
    r.sim.run();
    EXPECT_EQ(r.mem(1).load<std::uint64_t>(r.rflag), 1u)
        << "post_at=" << post_at;
    EXPECT_EQ(r.delivered(1), 1u) << "post_at=" << post_at;
  }
}

TEST(TriggeredNic, DistinctTagsIndependentFiring) {
  Rig r;
  auto p1 = r.put_0_to_1(1);
  auto f1 = r.rflag;
  auto p2 = r.put_0_to_1(2);
  auto f2 = r.rflag;
  r.trig(0).register_put(100, 1, p1);
  r.trig(0).register_put(200, 1, p2);
  r.mem(0).mmio_store(r.trig(0).trigger_address(), 200);
  r.sim.run();
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(f1), 0u);
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(f2), 1u);
  r.mem(0).mmio_store(r.trig(0).trigger_address(), 100);
  r.sim.run();
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(f1), 1u);
}

TEST(TriggeredNic, BurstOfTriggersFromManyThreads) {
  // §3.3: the NIC must absorb triggers from thousands of GPU threads in
  // quick succession. 1024 same-tick writes, threshold 1024.
  Rig r;
  r.trig(0).register_put(70, 1024, r.put_0_to_1(55));
  for (int i = 0; i < 1024; ++i) {
    r.mem(0).mmio_store(r.trig(0).trigger_address(), 70);
  }
  EXPECT_GE(r.trig(0).fifo_high_water(), 1024u);
  r.sim.run();
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(r.rflag), 1u);
  EXPECT_EQ(r.delivered(1), 1u);
}

TEST(TriggeredNic, MixedGranularityPairsOfWorkItems) {
  // §4.2.3: threshold 2 with half as many tags sends one message per pair
  // of work-items.
  Rig r;
  std::vector<mem::Addr> flags;
  for (int pair = 0; pair < 4; ++pair) {
    auto p = r.put_0_to_1(1000 + pair);
    flags.push_back(r.rflag);
    r.trig(0).register_put(300 + pair, /*threshold=*/2, p);
  }
  // 8 "work-items": item i writes tag 300 + i/2.
  for (int item = 0; item < 8; ++item) {
    r.mem(0).mmio_store(r.trig(0).trigger_address(), 300 + item / 2);
  }
  r.sim.run();
  for (auto f : flags) {
    EXPECT_EQ(r.mem(1).load<std::uint64_t>(f), 1u);
  }
  EXPECT_EQ(r.delivered(1), 4u);
}

TEST(TriggeredNic, LinkedListLookupCostSlowsMatching) {
  TriggeredNicConfig assoc_cfg;
  assoc_cfg.table.lookup = LookupKind::kAssociative;
  TriggeredNicConfig list_cfg;
  list_cfg.table.lookup = LookupKind::kLinkedList;
  list_cfg.table.associative_entries = 1 << 20;

  auto run_with = [](TriggeredNicConfig cfg) {
    Rig r(cfg);
    // Ten earlier tags so the target tag sits deep in the list.
    for (std::uint64_t tag = 0; tag < 10; ++tag) {
      r.trig(0).register_put(tag, 1000000, r.put_0_to_1(0));
    }
    r.trig(0).register_put(10, 1, r.put_0_to_1(5));
    auto flag = r.rflag;
    r.mem(0).mmio_store(r.trig(0).trigger_address(), 10);
    r.sim.run();
    EXPECT_EQ(r.mem(1).load<std::uint64_t>(flag), 1u);
    return r.sim.now();
  };
  EXPECT_GT(run_with(list_cfg), run_with(assoc_cfg));
}

TEST(TriggeredNic, FiredEntriesLeaveTheTable) {
  TriggeredNicConfig cfg;
  cfg.table.lookup = LookupKind::kHash;
  Rig r(cfg);
  constexpr Tag kPuts = 1000;
  for (Tag tag = 0; tag < kPuts; ++tag) {
    r.trig(0).register_put(tag, /*threshold=*/2, r.put_0_to_1(tag));
  }
  EXPECT_EQ(r.trig(0).table().size(), kPuts);
  for (int round = 0; round < 2; ++round) {
    for (Tag tag = 0; tag < kPuts; ++tag) {
      r.mem(0).mmio_store(r.trig(0).trigger_address(), tag);
    }
  }
  r.sim.run();
  EXPECT_EQ(r.delivered(1), kPuts);
  EXPECT_EQ(r.mem(1).load<std::uint64_t>(r.dst), kPuts - 1);
  EXPECT_EQ(r.trig(0).table().size(), 0u)
      << "each entry leaves the table as its put fires";
  EXPECT_EQ(r.trig(0).table().orphans_created(), 0u);
}

// Cross-node chain: a put with a counting-receive tag advances the target
// NIC's trigger counter, firing a pre-staged forward put — a processor-free
// relay.
TEST(TriggerChains, CountingReceiveForwardsAcrossNodes) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  std::vector<std::unique_ptr<mem::Memory>> mems;
  std::vector<std::unique_ptr<nic::Nic>> nics;
  std::vector<std::unique_ptr<TriggeredNic>> trigs;
  for (int i = 0; i < 3; ++i) {
    mems.push_back(std::make_unique<mem::Memory>(1 << 20));
    nics.push_back(
        std::make_unique<nic::Nic>(sim, *mems.back(), fabric, nic::NicConfig{}));
    trigs.push_back(std::make_unique<TriggeredNic>(sim, *nics.back(),
                                                   *mems.back(),
                                                   TriggeredNicConfig{}));
  }
  // Node 0 sends to node 1; node 1's NIC auto-forwards to node 2.
  mem::Addr src = mems[0]->alloc(64);
  mems[0]->store<std::uint64_t>(src, 777);
  mem::Addr relay = mems[1]->alloc(64);
  mem::Addr dst = mems[2]->alloc(64);
  mem::Addr final_flag = mems[2]->alloc(8);
  mems[2]->store<std::uint64_t>(final_flag, 0);

  // Stage the forward put on node 1, armed by counting-receive tag 5.
  nic::PutDesc fwd;
  fwd.target = 2;
  fwd.local_addr = relay;
  fwd.bytes = 64;
  fwd.remote_addr = dst;
  fwd.remote_flag = final_flag;
  trigs[1]->register_put(5, 1, fwd);

  // First hop: put into the relay buffer, carrying the counting tag.
  nic::PutDesc first;
  first.target = 1;
  first.local_addr = src;
  first.bytes = 64;
  first.remote_addr = relay;
  first.remote_trigger_tag_plus1 = 5 + 1;
  nics[0]->ring_doorbell(first);

  sim.run();
  EXPECT_EQ(mems[2]->load<std::uint64_t>(final_flag), 1u);
  EXPECT_EQ(mems[2]->load<std::uint64_t>(dst), 777u);
  EXPECT_EQ(trigs[1]->triggers_received(), 1u);
  sim.reap_processes();
}

}  // namespace
}  // namespace gputn::core
