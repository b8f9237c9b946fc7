// Eager/rendezvous protocol selection.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "nic/nic.hpp"
#include "sim/simulator.hpp"

namespace gputn::nic {
namespace {

struct TwoNodes {
  explicit TwoNodes(NicConfig cfg = NicConfig{}) {
    for (int i = 0; i < 2; ++i) {
      mems.push_back(std::make_unique<mem::Memory>(8 << 20));
      nics.push_back(std::make_unique<Nic>(sim, *mems.back(), fabric, cfg));
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

void fill(mem::Memory& m, mem::Addr a, std::size_t n, std::uint64_t seed) {
  for (std::size_t i = 0; i < n / 8; ++i) {
    m.store<std::uint64_t>(a + i * 8, seed + i);
  }
}

bool check(mem::Memory& m, mem::Addr a, std::size_t n, std::uint64_t seed) {
  for (std::size_t i = 0; i < n / 8; ++i) {
    if (m.load<std::uint64_t>(a + i * 8) != seed + i) return false;
  }
  return true;
}

TEST(Rendezvous, LargeSendUsesRtsPullData) {
  NicConfig cfg;
  cfg.eager_threshold = 1024;
  TwoNodes t(cfg);
  const std::size_t kBytes = 64 * 1024;
  mem::Addr src = t.mem(0).alloc(kBytes);
  mem::Addr dst = t.mem(1).alloc(kBytes);
  fill(t.mem(0), src, kBytes, 42);
  mem::Addr lflag = t.flag(0);
  mem::Addr rflag = t.flag(1);

  t.nic(1).post_recv(RecvDesc{0, 9, dst, kBytes, rflag, 1});
  t.nic(0).ring_doorbell(SendDesc{1, src, kBytes, 9, lflag, 1});
  t.sim.run();

  EXPECT_EQ(t.mem(1).load<std::uint64_t>(rflag), 1u);
  EXPECT_EQ(t.mem(0).load<std::uint64_t>(lflag), 1u);
  EXPECT_TRUE(check(t.mem(1), dst, kBytes, 42));
  // RTS, pull request, payload: three messages where eager sends one.
  EXPECT_EQ(t.fabric.messages_sent(), 3u);
}

TEST(Rendezvous, RtsBeforeRecvParksUntilMatched) {
  NicConfig cfg;
  cfg.eager_threshold = 512;
  TwoNodes t(cfg);
  const std::size_t kBytes = 4096;
  mem::Addr src = t.mem(0).alloc(kBytes);
  mem::Addr dst = t.mem(1).alloc(kBytes);
  fill(t.mem(0), src, kBytes, 7);
  mem::Addr rflag = t.flag(1);

  t.nic(0).ring_doorbell(SendDesc{1, src, kBytes, 3, 0, 1});
  t.sim.run();
  EXPECT_EQ(t.mem(1).load<std::uint64_t>(rflag), 0u);
  // No large unexpected payload was buffered — only the RTS descriptor.
  EXPECT_EQ(t.nic(1).unexpected_msgs(), 0);

  t.nic(1).post_recv(RecvDesc{0, 3, dst, kBytes, rflag, 1});
  t.sim.run();
  EXPECT_EQ(t.mem(1).load<std::uint64_t>(rflag), 1u);
  EXPECT_TRUE(check(t.mem(1), dst, kBytes, 7));
}

TEST(Rendezvous, SmallSendsStayEager) {
  NicConfig cfg;
  cfg.eager_threshold = 4096;
  TwoNodes t(cfg);
  mem::Addr src = t.mem(0).alloc(1024);
  mem::Addr dst = t.mem(1).alloc(1024);
  mem::Addr rflag = t.flag(1);
  t.nic(1).post_recv(RecvDesc{0, 1, dst, 1024, rflag, 1});
  t.nic(0).ring_doorbell(SendDesc{1, src, 1024, 1, 0, 1});
  t.sim.run();
  EXPECT_EQ(t.mem(1).load<std::uint64_t>(rflag), 1u);
  EXPECT_EQ(t.fabric.messages_sent(), 1u);  // the payload, no handshake
}

TEST(Rendezvous, SenderLocalCompletionAfterPullNotRts) {
  NicConfig cfg;
  cfg.eager_threshold = 512;
  TwoNodes t(cfg);
  const std::size_t kBytes = 8192;
  mem::Addr src = t.mem(0).alloc(kBytes);
  mem::Addr dst = t.mem(1).alloc(kBytes);
  mem::Addr lflag = t.flag(0);

  t.nic(0).ring_doorbell(SendDesc{1, src, kBytes, 5, lflag, 1});
  t.sim.run();
  // Receive not yet posted: the buffer must NOT be marked reusable.
  EXPECT_EQ(t.mem(0).load<std::uint64_t>(lflag), 0u);
  t.nic(1).post_recv(RecvDesc{0, 5, dst, kBytes, 0, 1});
  t.sim.run();
  EXPECT_EQ(t.mem(0).load<std::uint64_t>(lflag), 1u);
}

TEST(Rendezvous, TooSmallRecvBufferFaults) {
  NicConfig cfg;
  cfg.eager_threshold = 512;
  TwoNodes t(cfg);
  mem::Addr src = t.mem(0).alloc(8192);
  mem::Addr dst = t.mem(1).alloc(1024);
  t.nic(0).ring_doorbell(SendDesc{1, src, 8192, 5, 0, 1});
  t.sim.run();
  EXPECT_THROW(t.nic(1).post_recv(RecvDesc{0, 5, dst, 1024, 0, 1}),
               std::runtime_error);
}

}  // namespace
}  // namespace gputn::nic
