#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
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

// --- sim::all ---------------------------------------------------------------
//
// Each case pins the parent's resume tick, the order of everything it logs,
// and the events a run executes. The ticks and orders are those of the
// code sim::all replaced, which spawned each child as a process and joined
// them in order. Each event count is that code's (in the comment) less one
// reap event per process it spawned, the parent's included: a child frees
// its frame as it returns, and so does a process.

/// Waits `d1`, then `d2`; logs `name` as it returns. With `mark`, it first
/// schedules, at its return tick, an event that logs 'M'.
Task<> kid(Simulator& s, std::string& log, char name, Tick d1, Tick d2 = 0,
           bool mark = false) {
  co_await s.delay(d1);
  co_await s.delay(d2);
  if (mark) s.schedule_at(s.now(), [&log] { log += 'M'; });
  log += name;
}

/// Runs `kids` as its children, then logs `name` and the tick in `at`.
Task<> parent(Simulator& s, std::string& log, char name,
              std::vector<Task<>> kids, Tick& at) {
  co_await all(s, std::move(kids));
  at = s.now();
  log += name;
}

struct AllRun {
  std::string log;
  Tick at = -1;
  std::uint64_t events = 0;
};

/// Spawns parent 'P' over the children `make` builds, then runs.
template <typename Make>
AllRun run_all(Make make) {
  AllRun r;
  Simulator sim;
  sim.spawn(parent(sim, r.log, 'P', make(sim, r.log), r.at), "parent");
  r.events = sim.run();
  EXPECT_EQ(sim.live_processes(), 0);
  return r;
}

std::vector<Task<>> tasks(Task<> a, Task<> b) {
  std::vector<Task<>> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return v;
}

TEST(All, ChildrenFinishingAtDifferentTicksInOrder) {
  AllRun r = run_all([](Simulator& s, std::string& log) {
    return tasks(kid(s, log, 'a', us(1)), kid(s, log, 'b', us(2)));
  });
  EXPECT_EQ(r.at, us(2));
  EXPECT_EQ(r.log, "abP");
  EXPECT_EQ(r.events, 4u);  // 2 delays and 2 wakes (7 - 3)
}

TEST(All, ChildrenFinishingAtDifferentTicksOutOfOrder) {
  // The parent waits for child 0; child 1 has returned by then.
  AllRun r = run_all([](Simulator& s, std::string& log) {
    return tasks(kid(s, log, 'a', us(2)), kid(s, log, 'b', us(1)));
  });
  EXPECT_EQ(r.at, us(2));
  EXPECT_EQ(r.log, "baP");
  EXPECT_EQ(r.events, 3u);  // 6 - 3
}

TEST(All, SameTickInOrderResumesTheParentBeforeALaterChildsEvent) {
  // Child 0 returns first at 5 us and schedules the parent's wake; child 1
  // returns later in the same tick and schedules M. The parent runs in its
  // wake, ahead of M: a count that reached zero at child 1 would run it
  // after M.
  AllRun r = run_all([](Simulator& s, std::string& log) {
    return tasks(kid(s, log, 'a', us(5)),
                 kid(s, log, 'b', us(5), 0, /*mark=*/true));
  });
  EXPECT_EQ(r.at, us(5));
  EXPECT_EQ(r.log, "abPM");
  EXPECT_EQ(r.events, 4u);  // 7 - 3
}

TEST(All, SameTickOutOfOrder) {
  // Child 1 returns first in the 5 us tick and schedules M; the parent's
  // wake, scheduled when child 0 returns after it, runs after M.
  AllRun r = run_all([](Simulator& s, std::string& log) {
    return tasks(kid(s, log, 'a', us(4), us(1)),
                 kid(s, log, 'b', us(5), 0, /*mark=*/true));
  });
  EXPECT_EQ(r.at, us(5));
  EXPECT_EQ(r.log, "baMP");
  EXPECT_EQ(r.events, 5u);  // 8 - 3
}

TEST(All, ChildThatReturnsAtOnce) {
  AllRun r = run_all([](Simulator& s, std::string& log) {
    return tasks(kid(s, log, 'a', 0), kid(s, log, 'b', us(1)));
  });
  EXPECT_EQ(r.at, us(1));
  EXPECT_EQ(r.log, "abP");
  EXPECT_EQ(r.events, 2u);  // b's delay and the wake (5 - 3)
}

TEST(All, EveryChildReturnedAtOnceLeavesTheParentUnsuspended) {
  Simulator sim;
  std::string log;
  Tick at = -1;
  sim.spawn(parent(sim, log, 'P',
                   tasks(kid(sim, log, 'a', 0), kid(sim, log, 'b', 0)), at),
            "parent");
  EXPECT_EQ(log, "abP");  // before any event
  EXPECT_EQ(at, 0);
  EXPECT_EQ(sim.run(), 0u);  // 3 - 3
}

TEST(All, EmptyListLeavesTheParentUnsuspended) {
  Simulator sim;
  std::string log;
  Tick at = -1;
  sim.spawn(parent(sim, log, 'P', {}, at), "parent");
  EXPECT_EQ(log, "P");
  EXPECT_EQ(at, 0);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(All, Nested) {
  // Q = all(a @ 1 us, b @ 3 us) and c @ 2 us are the children of P.
  Tick q_at = -1;
  AllRun r = run_all([&q_at](Simulator& s, std::string& log) {
    return tasks(parent(s, log, 'Q',
                        tasks(kid(s, log, 'a', us(1)),
                              kid(s, log, 'b', us(3))),
                        q_at),
                 kid(s, log, 'c', us(2)));
  });
  EXPECT_EQ(q_at, us(3));
  EXPECT_EQ(r.at, us(3));
  EXPECT_EQ(r.log, "acbQP");
  EXPECT_EQ(r.events, 6u);  // 11 - 5: P, Q, c, and Q's a and b were spawned
}

/// Holds `token` for `d`. A by-value parameter lives in the frame, so the
/// token dies with the frame, not as the task returns.
Task<> hold(Simulator& s, [[maybe_unused]] std::shared_ptr<int> token,
            Tick d) {
  co_await s.delay(d);
}

TEST(All, ReturnedChildFreesItsFrameAtOnce) {
  // Child 0 returns at 5 us while child 1 runs to 10 us: an event at 7 us
  // finds child 0's frame freed, not kept until the parent resumes.
  Simulator sim;
  std::string log;
  Tick at = -1;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> alive = token;
  sim.spawn(parent(sim, log, 'P',
                   tasks(hold(sim, std::move(token), us(5)),
                         kid(sim, log, 'b', us(10))),
                   at),
            "parent");
  bool freed_by_7 = false;
  sim.schedule_at(us(7), [&] { freed_by_7 = alive.expired(); });
  sim.run();
  EXPECT_TRUE(freed_by_7);
  EXPECT_EQ(at, us(10));
}

TEST(All, ChildrenStartInOrderAtTheAwait) {
  Simulator sim;
  std::string log;
  auto starts = [](std::string& l, char c) -> Task<> {
    l += c;
    co_return;
  };
  sim.spawn(
      [](Simulator& s, std::string& l, auto mk) -> Task<> {
        std::vector<Task<>> v;
        v.push_back(mk(l, 'a'));
        v.push_back(mk(l, 'b'));
        l += '<';  // made, not started
        co_await all(s, std::move(v));
        l += '>';
      }(sim, log, starts),
      "parent");
  EXPECT_EQ(log, "<ab>");
}

}  // namespace
}  // namespace gputn::sim
