// Dynamic GPU-TN (§3.4 — the paper's future-work extension, implemented):
// the GPU supplies the target node in the trigger store; the NIC patches
// the pre-staged put.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/triggered.hpp"
#include "net/fabric.hpp"
#include "nic/nic.hpp"
#include "sim/simulator.hpp"

namespace gputn::core {
namespace {

struct Rig {
  explicit Rig(int nodes) {
    for (int i = 0; i < nodes; ++i) {
      mems.push_back(std::make_unique<mem::Memory>(1 << 20));
      nics.push_back(std::make_unique<nic::Nic>(sim, *mems.back(), fabric,
                                                nic::NicConfig{}));
      TriggeredNicConfig cfg;
      cfg.table.lookup = LookupKind::kHash;
      trigs.push_back(std::make_unique<TriggeredNic>(sim, *nics.back(),
                                                     *mems.back(), cfg));
    }
  }
  ~Rig() { sim.reap_processes(); }
  sim::Simulator sim;
  net::Fabric fabric{sim, net::FabricConfig{}};
  std::vector<std::unique_ptr<mem::Memory>> mems;
  std::vector<std::unique_ptr<nic::Nic>> nics;
  std::vector<std::unique_ptr<TriggeredNic>> trigs;
};

TEST(DynamicTrigger, EncodingRoundTrip) {
  std::uint64_t v = encode_dynamic_trigger(/*tag=*/1234, /*target=*/7);
  EXPECT_EQ(v & 0xffffffffull, 1234u);
  EXPECT_EQ(v >> 32, 8u);  // target + 1
}

TEST(DynamicTrigger, GpuChosenTargetReceivesThePut) {
  Rig r(4);
  mem::Addr src = r.mems[0]->alloc(64);
  r.mems[0]->store<std::uint64_t>(src, 0xD17A);
  // Symmetric landing buffers at the same address on every node (PGAS
  // style), staged once with an unknown target.
  std::vector<mem::Addr> dst, flag;
  for (int i = 0; i < 4; ++i) {
    dst.push_back(r.mems[i]->alloc(64));
    flag.push_back(r.mems[i]->alloc(8));
    r.mems[i]->store<std::uint64_t>(flag.back(), 0);
  }
  nic::PutDesc put;
  put.local_addr = src;
  put.bytes = 64;
  put.remote_addr = dst[2];   // symmetric: same offset on all nodes
  put.remote_flag = flag[2];
  r.trigs[0]->register_dynamic_put(/*tag=*/9, put);

  // The "GPU" picks node 2 at trigger time.
  r.mems[0]->mmio_store(r.trigs[0]->dynamic_trigger_address(),
                        encode_dynamic_trigger(9, 2));
  r.sim.run();
  EXPECT_EQ(r.mems[2]->load<std::uint64_t>(flag[2]), 1u);
  EXPECT_EQ(r.mems[2]->load<std::uint64_t>(dst[2]), 0xD17Au);
  EXPECT_EQ(r.mems[1]->load<std::uint64_t>(flag[1]), 0u);
  EXPECT_EQ(r.mems[3]->load<std::uint64_t>(flag[3]), 0u);
}

TEST(DynamicTrigger, DifferentEventsDifferentTargets) {
  Rig r(4);
  mem::Addr src = r.mems[0]->alloc(64);
  std::vector<mem::Addr> flag;
  std::vector<mem::Addr> dst;
  for (int i = 0; i < 4; ++i) {
    dst.push_back(r.mems[i]->alloc(64));
    flag.push_back(r.mems[i]->alloc(8));
    r.mems[i]->store<std::uint64_t>(flag.back(), 0);
  }
  for (Tag tag = 0; tag < 3; ++tag) {
    nic::PutDesc put;
    put.local_addr = src;
    put.bytes = 64;
    put.remote_addr = dst[1];  // symmetric offsets
    put.remote_flag = flag[1];
    r.trigs[0]->register_dynamic_put(tag, put);
  }
  // Scatter: tag t -> node t+1.
  for (Tag tag = 0; tag < 3; ++tag) {
    r.mems[0]->mmio_store(r.trigs[0]->dynamic_trigger_address(),
                          encode_dynamic_trigger(tag, static_cast<int>(tag) + 1));
  }
  r.sim.run();
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(r.mems[i]->load<std::uint64_t>(flag[1]), 1u) << "node " << i;
  }
}

TEST(DynamicTrigger, StaticTagsStillWorkOnTheStaticAddress) {
  Rig r(2);
  mem::Addr src = r.mems[0]->alloc(64);
  mem::Addr dst = r.mems[1]->alloc(64);
  mem::Addr flag = r.mems[1]->alloc(8);
  r.mems[1]->store<std::uint64_t>(flag, 0);
  nic::PutDesc put;
  put.target = 1;
  put.local_addr = src;
  put.bytes = 64;
  put.remote_addr = dst;
  put.remote_flag = flag;
  r.trigs[0]->register_put(5, 1, put);
  r.mems[0]->mmio_store(r.trigs[0]->trigger_address(), 5);
  r.sim.run();
  EXPECT_EQ(r.mems[1]->load<std::uint64_t>(flag), 1u);
}

TEST(DynamicTrigger, NonDynamicEventOnDynamicOpFaults) {
  Rig r(2);
  mem::Addr src = r.mems[0]->alloc(64);
  nic::PutDesc put;
  put.local_addr = src;
  put.bytes = 64;
  put.remote_addr = src;
  r.trigs[0]->register_dynamic_put(3, put);
  // A static-address store carries no target: the fire must fault (the
  // matching unit throws out of the run; nothing is sent).
  r.mems[0]->mmio_store(r.trigs[0]->trigger_address(), 3);
  EXPECT_THROW(r.sim.run(), std::runtime_error);
  EXPECT_EQ(r.fabric.messages_sent(), 0u);
}

TEST(DynamicTrigger, DynamicDecodeCostsExtraTime) {
  auto run_with = [](bool dynamic) {
    Rig r(2);
    mem::Addr src = r.mems[0]->alloc(64);
    mem::Addr dst = r.mems[1]->alloc(64);
    mem::Addr flag = r.mems[1]->alloc(8);
    r.mems[1]->store<std::uint64_t>(flag, 0);
    nic::PutDesc put;
    put.target = 1;
    put.local_addr = src;
    put.bytes = 64;
    put.remote_addr = dst;
    put.remote_flag = flag;
    if (dynamic) {
      r.trigs[0]->register_dynamic_put(1, put);
      r.mems[0]->mmio_store(r.trigs[0]->dynamic_trigger_address(),
                            encode_dynamic_trigger(1, 1));
    } else {
      r.trigs[0]->register_put(1, 1, put);
      r.mems[0]->mmio_store(r.trigs[0]->trigger_address(), 1);
    }
    r.sim.run();
    EXPECT_EQ(r.mems[1]->load<std::uint64_t>(flag), 1u);
    return r.sim.now();
  };
  sim::Tick stat = run_with(false);
  sim::Tick dyn = run_with(true);
  EXPECT_GT(dyn, stat);
  EXPECT_LE(dyn - stat, sim::ns(10)) << "decode overhead is small";
}

}  // namespace
}  // namespace gputn::core
