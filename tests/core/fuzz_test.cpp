// Randomized property suite: for seeded-random schedules of host posts and
// GPU triggers (random times, random thresholds, random granularity), every
// registered operation fires exactly once and every payload arrives intact.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/triggered.hpp"
#include "net/fabric.hpp"
#include "nic/nic.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace gputn::core {
namespace {

struct FuzzRig {
  FuzzRig() {
    for (int i = 0; i < 2; ++i) {
      mems.push_back(std::make_unique<mem::Memory>(4 << 20));
      nics.push_back(std::make_unique<nic::Nic>(sim, *mems.back(), fabric,
                                                nic::NicConfig{}));
      TriggeredNicConfig cfg;
      cfg.table.lookup = LookupKind::kHash;
      trigs.push_back(std::make_unique<TriggeredNic>(sim, *nics.back(),
                                                     *mems.back(), cfg));
    }
  }
  ~FuzzRig() { sim.reap_processes(); }
  sim::Simulator sim;
  net::Fabric fabric{sim, net::FabricConfig{}};
  std::vector<std::unique_ptr<mem::Memory>> mems;
  std::vector<std::unique_ptr<nic::Nic>> nics;
  std::vector<std::unique_ptr<TriggeredNic>> trigs;
};

class RandomInterleavings : public ::testing::TestWithParam<int> {};

TEST_P(RandomInterleavings, ExactlyOnceAndIntactUnderRandomSchedules) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  FuzzRig r;

  const int num_ops = static_cast<int>(rng.uniform_int(1, 24));
  struct OpInfo {
    Tag tag;
    int threshold;
    mem::Addr src, dst, flag;
    std::uint64_t payload;
  };
  std::vector<OpInfo> ops;

  for (int i = 0; i < num_ops; ++i) {
    OpInfo op;
    op.tag = static_cast<Tag>(i);
    op.threshold = static_cast<int>(rng.uniform_int(1, 6));
    op.src = r.mems[0]->alloc(64);
    op.dst = r.mems[1]->alloc(64);
    op.flag = r.mems[1]->alloc(8);
    r.mems[1]->store<std::uint64_t>(op.flag, 0);
    op.payload = rng.engine()();
    r.mems[0]->store<std::uint64_t>(op.src, op.payload);
    ops.push_back(op);
  }

  // Random post times and random trigger-write times (some writes beyond
  // the threshold, some before the post, some after).
  for (const auto& op : ops) {
    sim::Tick post_at = sim::ns(rng.uniform_int(0, 3000));
    r.sim.schedule_at(post_at, [&r, op] {
      nic::PutDesc put;
      put.target = 1;
      put.local_addr = op.src;
      put.bytes = 64;
      put.remote_addr = op.dst;
      put.remote_flag = op.flag;
      r.trigs[0]->register_put(op.tag, op.threshold, put);
    });
    int writes = op.threshold + static_cast<int>(rng.uniform_int(0, 3));
    for (int w = 0; w < writes; ++w) {
      sim::Tick at = sim::ns(rng.uniform_int(0, 3000));
      r.sim.schedule_at(at, [&r, tag = op.tag] {
        r.mems[0]->mmio_store(r.trigs[0]->trigger_address(), tag);
      });
    }
  }
  r.sim.run();

  for (const auto& op : ops) {
    EXPECT_EQ(r.mems[1]->load<std::uint64_t>(op.flag), 1u)
        << "tag " << op.tag << " threshold " << op.threshold;
    EXPECT_EQ(r.mems[1]->load<std::uint64_t>(op.dst), op.payload);
  }
  EXPECT_EQ(r.fabric.messages_sent(), static_cast<std::uint64_t>(num_ops))
      << "exactly one put per op, never more";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInterleavings, ::testing::Range(0, 24));

}  // namespace
}  // namespace gputn::core
