// Doorbell-batching Qp and token-bucket rate limiter.
#include "nic/qp.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "nic/token_bucket.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace gputn::nic {
namespace {

struct TwoNodes {
  explicit TwoNodes(NicConfig cfg = {}) : TwoNodes(cfg, cfg) {}
  TwoNodes(const NicConfig& cfg0, const NicConfig& cfg1) {
    const NicConfig* cfgs[2] = {&cfg0, &cfg1};
    for (int i = 0; i < 2; ++i) {
      mems.push_back(std::make_unique<mem::Memory>(1 << 22));
      nics.push_back(std::make_unique<Nic>(sim, *mems.back(), fabric, *cfgs[i]));
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

PutDesc small_put(TwoNodes&, mem::Addr src, mem::Addr dst, mem::Addr rflag,
                  std::uint64_t flag_value) {
  PutDesc p;
  p.target = 1;
  p.local_addr = src;
  p.bytes = 64;
  p.remote_addr = dst;
  p.remote_flag = rflag;
  p.flag_value = flag_value;
  return p;
}

TEST(Qp, FullBatchRingsOneDoorbellInPostOrder) {
  TwoNodes t;
  mem::Addr src = t.mem(0).alloc(512);
  mem::Addr dst = t.mem(1).alloc(512);
  std::vector<mem::Addr> rflags;
  for (int i = 0; i < 4; ++i) rflags.push_back(t.flag(1));

  QpConfig qc;
  qc.batch_size = 4;
  qc.flush_timeout = sim::us(1);
  Qp qp(t.sim, t.nic(0), qc);
  for (int i = 0; i < 4; ++i) {
    qp.post(small_put(t, src + 64 * i, dst + 64 * i, rflags[i],
                      static_cast<std::uint64_t>(i) + 1));
  }
  EXPECT_EQ(qp.pending(), 0u);  // 4th post filled the batch and flushed
  t.sim.run();

  EXPECT_EQ(qp.posted(), 4u);
  EXPECT_EQ(qp.doorbells(), 1u);
  EXPECT_EQ(qp.batch_flushes(), 1u);
  EXPECT_EQ(qp.timeout_flushes(), 0u);
  EXPECT_EQ(qp.occupancy().max(), 4.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(t.mem(1).load<std::uint64_t>(rflags[i]),
              static_cast<std::uint64_t>(i) + 1);
  }
}

TEST(Qp, PartialBatchFlushesOnTimeoutInPostOrder) {
  TwoNodes t;
  mem::Addr src = t.mem(0).alloc(256);
  mem::Addr dst = t.mem(1).alloc(256);
  mem::Addr rf0 = t.flag(1);
  mem::Addr rf1 = t.flag(1);

  QpConfig qc;
  qc.batch_size = 4;
  qc.flush_timeout = sim::ns(500);
  Qp qp(t.sim, t.nic(0), qc);

  // Two commands — below batch_size, so only the timer can flush them.
  // The receive order must be post order (FIFO through one doorbell).
  sim::Tick landed0 = -1;
  sim::Tick landed1 = -1;
  t.sim.spawn(
      [](TwoNodes& tt, Qp& q, mem::Addr s, mem::Addr d, mem::Addr f0,
         mem::Addr f1, sim::Tick& l0, sim::Tick& l1) -> sim::Task<> {
        q.post(small_put(tt, s, d, f0, 1));
        q.post(small_put(tt, s + 64, d + 64, f1, 1));
        EXPECT_EQ(q.pending(), 2u);
        while (tt.mem(1).load<std::uint64_t>(f0) == 0) {
          co_await tt.sim.delay(sim::ns(5));
        }
        l0 = tt.sim.now();
        while (tt.mem(1).load<std::uint64_t>(f1) == 0) {
          co_await tt.sim.delay(sim::ns(5));
        }
        l1 = tt.sim.now();
      }(t, qp, src, dst, rf0, rf1, landed0, landed1),
      "driver");
  t.sim.run();

  EXPECT_EQ(qp.doorbells(), 1u);
  EXPECT_EQ(qp.timeout_flushes(), 1u);
  EXPECT_EQ(qp.batch_flushes(), 0u);
  // The flush happened at the timeout, not at post time: nothing can land
  // before flush_timeout + doorbell latency.
  EXPECT_GE(landed0, sim::ns(500));
  EXPECT_GE(landed1, landed0);  // post order preserved
}

TEST(Qp, TimerGenerationSkipsStaleTimeoutAfterBatchFlush) {
  TwoNodes t;
  mem::Addr src = t.mem(0).alloc(512);
  mem::Addr dst = t.mem(1).alloc(512);
  std::vector<mem::Addr> rflags;
  for (int i = 0; i < 6; ++i) rflags.push_back(t.flag(1));

  QpConfig qc;
  qc.batch_size = 2;
  qc.flush_timeout = sim::ns(300);
  Qp qp(t.sim, t.nic(0), qc);
  // Three full batches flush on size; their armed timers must all be stale
  // no-ops (no extra doorbells, no timeout flushes).
  for (int i = 0; i < 6; ++i) {
    qp.post(small_put(t, src + 64 * i, dst + 64 * i, rflags[i], 1));
  }
  t.sim.run();
  EXPECT_EQ(qp.doorbells(), 3u);
  EXPECT_EQ(qp.batch_flushes(), 3u);
  EXPECT_EQ(qp.timeout_flushes(), 0u);
}

TEST(TokenBucket, BurstPassesThenConformsToRate) {
  sim::Simulator sim;
  TokenBucketConfig cfg;
  cfg.ops_per_sec = 1e6;  // 1 op per us
  cfg.burst = 4;
  TokenBucket tb(cfg);
  ASSERT_TRUE(tb.enabled());
  EXPECT_EQ(tb.period(), sim::us(1));

  // N back-to-back reservations, each taken once the last one's wait has
  // elapsed: the first `burst` pass immediately, the rest pace out at one
  // per period — total time >= (N - burst) * period.
  constexpr int kOps = 12;
  sim::Tick done = -1;
  sim.spawn(
      [](sim::Simulator& s, TokenBucket& b, sim::Tick& out) -> sim::Task<> {
        for (int i = 0; i < kOps; ++i) co_await s.delay(b.reserve(s.now()));
        out = s.now();
      }(sim, tb, done),
      "burst");
  sim.run();

  ASSERT_GE(done, 0);
  EXPECT_GE(done, (kOps - cfg.burst) * sim::us(1));
  // Conformance upper bound: no over-throttling beyond one extra period.
  EXPECT_LE(done, (kOps - cfg.burst + 1) * sim::us(1));
  EXPECT_EQ(tb.admitted(), static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(tb.stalls(), static_cast<std::uint64_t>(kOps - cfg.burst));
  EXPECT_GT(tb.stalled_time(), 0);
}

TEST(TokenBucket, IdleRefillsOnlyUpToBurst) {
  sim::Simulator sim;
  TokenBucketConfig cfg;
  cfg.ops_per_sec = 1e6;
  cfg.burst = 2;
  TokenBucket tb(cfg);

  sim::Tick second_burst_elapsed = -1;
  sim.spawn(
      [](sim::Simulator& s, TokenBucket& b, sim::Tick& out) -> sim::Task<> {
        co_await s.delay(b.reserve(s.now()));
        co_await s.delay(b.reserve(s.now()));  // bucket drained
        co_await s.delay(sim::ms(1));  // long idle: refills clamp at burst
        sim::Tick t0 = s.now();
        for (int i = 0; i < 4; ++i) co_await s.delay(b.reserve(s.now()));
        out = s.now() - t0;
      }(sim, tb, second_burst_elapsed),
      "idle");
  sim.run();

  // Only `burst` tokens accumulated during the idle gap, so 4 acquires
  // need 2 refill periods — a leaky-bucket would have banked all 1000.
  EXPECT_GE(second_burst_elapsed, 2 * sim::us(1));
}

TEST(TokenBucket, NicRateLimitPacesCommandPipeline) {
  NicConfig cfg;
  cfg.rate_limit.ops_per_sec = 2e6;  // 500 ns per op
  cfg.rate_limit.burst = 1;
  TwoNodes t(cfg, NicConfig{});  // only the initiator NIC is rate-limited
  mem::Addr src = t.mem(0).alloc(512);
  mem::Addr dst = t.mem(1).alloc(512);
  mem::Addr last_flag = t.flag(1);
  for (int i = 0; i < 8; ++i) {
    PutDesc p = small_put(t, src + 64 * i, dst + 64 * i,
                          i == 7 ? last_flag : 0, 1);
    t.nic(0).ring_doorbell(p);
  }
  t.sim.run();
  EXPECT_EQ(t.mem(1).load<std::uint64_t>(last_flag), 1u);
  // 8 ops through a 1-deep bucket at 500 ns: >= 7 stall periods on the
  // initiator's TX pipeline.
  EXPECT_GE(t.sim.now(), 7 * sim::ns(500));
  const TokenBucket* tb = t.nic(0).rate_limiter();
  ASSERT_NE(tb, nullptr);
  EXPECT_EQ(tb->admitted(), 8u);
  EXPECT_GE(tb->stalls(), 7u);
  // The un-limited peer NIC has no token bucket at all.
  EXPECT_EQ(t.nic(1).rate_limiter(), nullptr);
}

}  // namespace
}  // namespace gputn::nic
