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
