#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace gputn::sim {
namespace {

TEST(Event, LatchesAndReleasesAllWaiters) {
  Simulator sim;
  Event ev(sim);
  std::vector<Tick> woke;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(
        [](Simulator& s, Event& e, std::vector<Tick>& out) -> Task<> {
          co_await e.wait();
          out.push_back(s.now());
        }(sim, ev, woke),
        "waiter");
  }
  sim.schedule_at(us(2), [&] { ev.trigger(); });
  sim.run();
  ASSERT_EQ(woke.size(), 3u);
  for (Tick t : woke) EXPECT_EQ(t, us(2));
}

TEST(Event, WaitAfterTriggerCompletesImmediately) {
  Simulator sim;
  Event ev(sim);
  ev.trigger();
  Tick woke = -1;
  sim.spawn(
      [](Simulator& s, Event& e, Tick& out) -> Task<> {
        co_await s.delay(us(1));
        co_await e.wait();  // already triggered: no extra delay
        out = s.now();
      }(sim, ev, woke),
      "late");
  sim.run();
  EXPECT_EQ(woke, us(1));
}

TEST(Event, DoubleTriggerIsIdempotent) {
  Simulator sim;
  Event ev(sim);
  int wakes = 0;
  sim.spawn(
      [](Event& e, int& out) -> Task<> {
        co_await e.wait();
        ++out;
      }(ev, wakes),
      "w");
  ev.trigger();
  ev.trigger();
  sim.run();
  EXPECT_EQ(wakes, 1);
}

TEST(Condition, WaitUntilReevaluatesPredicate) {
  Simulator sim;
  Condition cond(sim);
  int value = 0;
  Tick done_at = -1;
  sim.spawn(
      [](Simulator& s, Condition& c, int& v, Tick& out) -> Task<> {
        while (v < 3) co_await c.wait();
        out = s.now();
      }(sim, cond, value, done_at),
      "waiter");
  for (int i = 1; i <= 3; ++i) {
    sim.schedule_at(us(i), [&value, &cond, i] {
      value = i;
      cond.notify_all();
    });
  }
  sim.run();
  EXPECT_EQ(done_at, us(3));
}

TEST(Channel, FifoOrderAcrossSuspensions) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn(
      [](Channel<int>& c, std::vector<int>& out) -> Task<> {
        for (int i = 0; i < 5; ++i) out.push_back(co_await c.pop());
      }(ch, got),
      "consumer");
  sim.spawn(
      [](Simulator& s, Channel<int>& c) -> Task<> {
        for (int i = 0; i < 5; ++i) {
          c.push(i);
          co_await s.delay(ns(10));
        }
      }(sim, ch),
      "producer");
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, MultipleConsumersEachGetOneItem) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(
        [](Channel<int>& c, std::vector<int>& out) -> Task<> {
          out.push_back(co_await c.pop());
        }(ch, got),
        "c");
  }
  sim.schedule_at(us(1), [&] {
    ch.push(10);
    ch.push(20);
    ch.push(30);
  });
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0] + got[1] + got[2], 60);
}

TEST(Semaphore, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int concurrent = 0;
  int max_concurrent = 0;
  for (int i = 0; i < 6; ++i) {
    sim.spawn(
        [](Simulator& s, Semaphore& se, int& cur, int& mx) -> Task<> {
          co_await se.acquire();
          ++cur;
          mx = std::max(mx, cur);
          co_await s.delay(us(1));
          --cur;
          se.release();
        }(sim, sem, concurrent, max_concurrent),
        "worker");
  }
  sim.run();
  EXPECT_EQ(max_concurrent, 2);
  EXPECT_EQ(sim.now(), us(3));  // 6 workers, 2 wide, 1 us each
  EXPECT_EQ(sem.available(), 2);
}

TEST(JoinAll, WaitsForEveryHandle) {
  Simulator sim;
  std::vector<ProcessHandle> handles;
  for (int i = 1; i <= 4; ++i) {
    handles.push_back(sim.spawn(
        [](Simulator& s, int d) -> Task<> { co_await s.delay(us(d)); }(sim, i),
        "w"));
  }
  Tick done = -1;
  sim.spawn(
      [](Simulator& s, std::vector<ProcessHandle> hs, Tick& out) -> Task<> {
        co_await join_all(std::move(hs));
        out = s.now();
      }(sim, handles, done),
      "joiner");
  sim.run();
  EXPECT_EQ(done, us(4));
}

}  // namespace
}  // namespace gputn::sim
