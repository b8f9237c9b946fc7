#include "nic/nic.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "net/fabric.hpp"
#include "sim/simulator.hpp"

namespace gputn::nic {
namespace {

struct TwoNodes {
  TwoNodes() {
    for (int i = 0; i < 2; ++i) {
      mems.push_back(std::make_unique<mem::Memory>(1 << 22));
      nics.push_back(
          std::make_unique<Nic>(sim, *mems.back(), fabric, NicConfig{}));
    }
  }
  ~TwoNodes() { sim.reap_processes(); }

  mem::Memory& mem(int i) { return *mems[i]; }
  Nic& nic(int i) { return *nics[i]; }

  mem::Addr flag(int node) {
    mem::Addr f = mem(node).alloc(8);
    mem(node).store<std::uint64_t>(f, 0);
    return f;
  }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::FabricConfig{}};
  std::vector<std::unique_ptr<mem::Memory>> mems;
  std::vector<std::unique_ptr<Nic>> nics;
};

TEST(Nic, PutDeliversPayloadAndFlags) {
  TwoNodes t;
  mem::Addr src = t.mem(0).alloc(256);
  mem::Addr dst = t.mem(1).alloc(256);
  for (int i = 0; i < 32; ++i) {
    t.mem(0).store<std::uint64_t>(src + 8 * i, 1000 + i);
  }
  mem::Addr lflag = t.flag(0);
  mem::Addr rflag = t.flag(1);

  PutDesc put;
  put.target = 1;
  put.local_addr = src;
  put.bytes = 256;
  put.remote_addr = dst;
  put.local_flag = lflag;
  put.remote_flag = rflag;
  put.flag_value = 7;
  t.nic(0).ring_doorbell(put);
  t.sim.run();

  EXPECT_EQ(t.mem(0).load<std::uint64_t>(lflag), 7u);
  EXPECT_EQ(t.mem(1).load<std::uint64_t>(rflag), 7u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(t.mem(1).load<std::uint64_t>(dst + 8 * i), 1000u + i);
  }
  // One message on the wire, and one delivery recorded at the target.
  EXPECT_EQ(t.fabric.messages_sent(), 1u);
  const sim::Histogram* e2e = t.nic(1).stats().find_histogram(
      "lat.end_to_end");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count(), 1u);
}

TEST(Nic, LocalCompletionPrecedesRemoteCompletion) {
  TwoNodes t;
  mem::Addr src = t.mem(0).alloc(4096);
  mem::Addr dst = t.mem(1).alloc(4096);
  mem::Addr lflag = t.flag(0);
  mem::Addr rflag = t.flag(1);

  PutDesc put;
  put.target = 1;
  put.local_addr = src;
  put.bytes = 4096;
  put.remote_addr = dst;
  put.local_flag = lflag;
  put.remote_flag = rflag;
  t.nic(0).ring_doorbell(put);

  sim::Tick local_done = -1, remote_done = -1;
  t.sim.spawn(
      [](TwoNodes& tt, mem::Addr lf, mem::Addr rf, sim::Tick& l,
         sim::Tick& r) -> sim::Task<> {
        while (tt.mem(0).load<std::uint64_t>(lf) == 0) {
          co_await tt.sim.delay(sim::ns(5));
        }
        l = tt.sim.now();
        while (tt.mem(1).load<std::uint64_t>(rf) == 0) {
          co_await tt.sim.delay(sim::ns(5));
        }
        r = tt.sim.now();
      }(t, lflag, rflag, local_done, remote_done),
      "observer");
  t.sim.run();
  EXPECT_GT(local_done, 0);
  EXPECT_GT(remote_done, local_done);
}

TEST(Nic, GetFetchesRemoteData) {
  TwoNodes t;
  mem::Addr remote = t.mem(1).alloc(128);
  mem::Addr local = t.mem(0).alloc(128);
  t.mem(1).store<std::uint64_t>(remote, 0xabcdefull);
  t.mem(1).store<std::uint64_t>(remote + 120, 0x123456ull);
  mem::Addr lflag = t.flag(0);

  GetDesc get;
  get.target = 1;
  get.local_addr = local;
  get.bytes = 128;
  get.remote_addr = remote;
  get.local_flag = lflag;
  get.flag_value = 7;
  t.nic(0).ring_doorbell(get);
  t.sim.run();

  EXPECT_EQ(t.mem(0).load<std::uint64_t>(lflag), 7u);
  EXPECT_EQ(t.mem(0).load<std::uint64_t>(local), 0xabcdefull);
  EXPECT_EQ(t.mem(0).load<std::uint64_t>(local + 120), 0x123456ull);
}

TEST(Nic, SendMatchesPostedRecv) {
  TwoNodes t;
  mem::Addr src = t.mem(0).alloc(64);
  mem::Addr dst = t.mem(1).alloc(64);
  t.mem(0).store<std::uint64_t>(src, 42);
  mem::Addr rflag = t.flag(1);

  RecvDesc r;
  r.src = 0;
  r.tag = 5;
  r.local_addr = dst;
  r.max_bytes = 64;
  r.flag = rflag;
  t.nic(1).post_recv(r);

  SendDesc s;
  s.target = 1;
  s.local_addr = src;
  s.bytes = 64;
  s.tag = 5;
  t.nic(0).ring_doorbell(s);
  t.sim.run();

  EXPECT_EQ(t.mem(1).load<std::uint64_t>(rflag), 1u);
  EXPECT_EQ(t.mem(1).load<std::uint64_t>(dst), 42u);
  EXPECT_EQ(t.nic(1).posted_recvs(), 0);
}

TEST(Nic, UnexpectedSendBuffersUntilRecvPosted) {
  TwoNodes t;
  mem::Addr src = t.mem(0).alloc(64);
  mem::Addr dst = t.mem(1).alloc(64);
  t.mem(0).store<std::uint64_t>(src, 77);
  mem::Addr rflag = t.flag(1);

  SendDesc s;
  s.target = 1;
  s.local_addr = src;
  s.bytes = 64;
  s.tag = 9;
  t.nic(0).ring_doorbell(s);
  t.sim.run();
  EXPECT_EQ(t.nic(1).unexpected_msgs(), 1);
  EXPECT_EQ(t.mem(1).load<std::uint64_t>(rflag), 0u);

  RecvDesc r;
  r.src = 0;
  r.tag = 9;
  r.local_addr = dst;
  r.max_bytes = 64;
  r.flag = rflag;
  t.nic(1).post_recv(r);
  t.sim.run();
  EXPECT_EQ(t.mem(1).load<std::uint64_t>(rflag), 1u);
  EXPECT_EQ(t.mem(1).load<std::uint64_t>(dst), 77u);
  EXPECT_EQ(t.nic(1).unexpected_msgs(), 0);
}

TEST(Nic, TagsDisambiguateRecvs) {
  TwoNodes t;
  mem::Addr src1 = t.mem(0).alloc(8);
  mem::Addr src2 = t.mem(0).alloc(8);
  t.mem(0).store<std::uint64_t>(src1, 111);
  t.mem(0).store<std::uint64_t>(src2, 222);
  mem::Addr dst1 = t.mem(1).alloc(8);
  mem::Addr dst2 = t.mem(1).alloc(8);
  mem::Addr f1 = t.flag(1);
  mem::Addr f2 = t.flag(1);

  t.nic(1).post_recv(RecvDesc{0, 2, dst2, 8, f2, 1});
  t.nic(1).post_recv(RecvDesc{0, 1, dst1, 8, f1, 1});
  t.nic(0).ring_doorbell(SendDesc{1, src1, 8, 1, 0, 1});
  t.nic(0).ring_doorbell(SendDesc{1, src2, 8, 2, 0, 1});
  t.sim.run();

  EXPECT_EQ(t.mem(1).load<std::uint64_t>(dst1), 111u);
  EXPECT_EQ(t.mem(1).load<std::uint64_t>(dst2), 222u);
}

TEST(Nic, RecvBufferTooSmallFaults) {
  TwoNodes t;
  mem::Addr src = t.mem(0).alloc(128);
  mem::Addr dst = t.mem(1).alloc(8);
  t.nic(1).post_recv(RecvDesc{0, 1, dst, 8, 0, 1});
  t.nic(0).ring_doorbell(SendDesc{1, src, 128, 1, 0, 1});
  // The RX engine's match throws out of the run: no crash or silent
  // corruption, and nothing lands.
  EXPECT_THROW(t.sim.run(), std::runtime_error);
  EXPECT_EQ(t.mem(1).load<std::uint64_t>(dst), 0u);
}

TEST(Nic, CommandsExecuteFifo) {
  TwoNodes t;
  mem::Addr src = t.mem(0).alloc(64);
  mem::Addr dst = t.mem(1).alloc(64);
  mem::Addr flags[4];
  for (auto& f : flags) f = t.flag(1);
  for (int i = 0; i < 4; ++i) {
    PutDesc p;
    p.target = 1;
    p.local_addr = src;
    p.bytes = 64;
    p.remote_addr = dst;
    p.remote_flag = flags[i];
    p.flag_value = static_cast<std::uint64_t>(i + 1);
    t.nic(0).ring_doorbell(p);
  }
  t.sim.run();
  // All arrived; FIFO per path means last flag written last, and the final
  // memory value reflects command order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(t.mem(1).load<std::uint64_t>(flags[i]), static_cast<std::uint64_t>(i + 1));
  }
}

}  // namespace
}  // namespace gputn::nic
