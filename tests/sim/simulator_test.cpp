#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/sync.hpp"
#include "sim/units.hpp"

namespace gputn::sim {
namespace {

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(ns(30), [&] { order.push_back(3); });
  sim.schedule_at(ns(10), [&] { order.push_back(1); });
  sim.schedule_at(ns(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), ns(30));
}

TEST(Simulator, EqualTimesExecuteInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(ns(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 50) sim.schedule_in(ns(1), chain);
  };
  sim.schedule_in(ns(1), chain);
  sim.run();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(sim.now(), ns(50));
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(ns(10), [&] { ++fired; });
  sim.schedule_at(ns(100), [&] { ++fired; });
  sim.run_until(ns(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), ns(50));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CoroutineDelayAdvancesTime) {
  Simulator sim;
  Tick finished = -1;
  sim.spawn(
      [](Simulator& s, Tick& out) -> Task<> {
        co_await s.delay(us(3));
        co_await s.delay(us(4));
        out = s.now();
      }(sim, finished),
      "delayer");
  sim.run();
  EXPECT_EQ(finished, us(7));
  EXPECT_EQ(sim.live_processes(), 0);
}

TEST(Simulator, TaskReturnValuesPropagate) {
  Simulator sim;
  int result = 0;
  auto child = [](Simulator& s) -> Task<int> {
    co_await s.delay(ns(1));
    co_return 99;
  };
  sim.spawn(
      [](Simulator& s, int& out, auto mk) -> Task<> {
        out = co_await mk(s);
      }(sim, result, child),
      "parent");
  sim.run();
  EXPECT_EQ(result, 99);
}

TEST(Simulator, JoinWaitsForProcess) {
  Simulator sim;
  auto h = sim.spawn(
      [](Simulator& s) -> Task<> { co_await s.delay(us(5)); }(sim), "w");
  Tick joined_at = -1;
  sim.spawn(
      [](Simulator& s, ProcessHandle ph, Tick& out) -> Task<> {
        co_await ph.join();
        out = s.now();
      }(sim, h, joined_at),
      "joiner");
  sim.run();
  EXPECT_EQ(joined_at, us(5));
  EXPECT_TRUE(h.finished());
}

TEST(Simulator, ExceptionsPropagateThroughJoin) {
  Simulator sim;
  auto h = sim.spawn(
      [](Simulator& s) -> Task<> {
        co_await s.delay(ns(1));
        throw std::runtime_error("boom");
      }(sim),
      "thrower");
  bool caught = false;
  sim.spawn(
      [](ProcessHandle ph, bool& out) -> Task<> {
        try {
          co_await ph.join();
        } catch (const std::runtime_error&) {
          out = true;
        }
      }(h, caught),
      "catcher");
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulator, ExceptionsPropagateThroughAwait) {
  Simulator sim;
  bool caught = false;
  auto child = [](Simulator& s) -> Task<> {
    co_await s.delay(ns(1));
    throw std::logic_error("inner");
  };
  sim.spawn(
      [](Simulator& s, bool& out, auto mk) -> Task<> {
        try {
          co_await mk(s);
        } catch (const std::logic_error&) {
          out = true;
        }
      }(sim, caught, child),
      "outer");
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulator, SynchronouslyCompletingProcess) {
  Simulator sim;
  bool ran = false;
  auto h = sim.spawn(
      [](bool& out) -> Task<> {
        out = true;
        co_return;
      }(ran),
      "sync");
  EXPECT_TRUE(ran);
  EXPECT_TRUE(h.finished());
  sim.run();
  EXPECT_EQ(sim.live_processes(), 0);
}

TEST(Simulator, ReapProcessesKillsServiceLoops) {
  Simulator sim;
  sim.spawn(
      [](Simulator& s) -> Task<> {
        for (;;) co_await s.delay(us(1));
      }(sim),
      "forever");
  sim.run_until(us(10));
  EXPECT_EQ(sim.live_processes(), 1);
  sim.reap_processes();
  EXPECT_EQ(sim.live_processes(), 0);
}

struct CountOnDestroy {
  int* count;
  ~CountOnDestroy() { ++*count; }
};

TEST(Simulator, ManyShortProcessesFinishAmongLongLivedOnes) {
  // A finished process leaves the live list by swap-remove, which reorders
  // it; every long-lived frame must still be on it for ~Simulator to reap.
  int reaped = 0;
  {
    Simulator sim;
    Event never(sim);
    for (int wave = 1; wave <= 2; ++wave) {
      for (int i = 0; i < 3000; ++i) {
        if (i % 100 == 0) {
          sim.spawn(
              [](Event& e, int& count) -> Task<> {
                CountOnDestroy c{&count};
                co_await e.wait();
              }(never, reaped),
              "long");
        } else {
          sim.spawn(
              [](Simulator& s, Tick d) -> Task<> { co_await s.delay(d); }(
                  sim, ns(i % 13)),
              "short");
        }
      }
      sim.run();
      EXPECT_EQ(sim.live_processes(), 30 * wave);
    }
    EXPECT_EQ(reaped, 0);
  }
  EXPECT_EQ(reaped, 60);
}

TEST(Simulator, ReclaimAfterReapLeavesLaterProcessesAlone) {
  // The finished process's reclaim is still queued when reap_processes()
  // empties the live list; it must not remove the process spawned next.
  int reaped = 0;
  {
    Simulator sim;
    Event never(sim);
    sim.spawn([]() -> Task<> { co_return; }(), "done");
    sim.reap_processes();
    sim.spawn(
        [](Event& e, int& count) -> Task<> {
          CountOnDestroy c{&count};
          co_await e.wait();
        }(never, reaped),
        "long");
    sim.run();
    EXPECT_EQ(sim.live_processes(), 1);
  }
  EXPECT_EQ(reaped, 1);
}

TEST(Simulator, DeterministicEventCounts) {
  auto run_once = [] {
    Simulator sim;
    for (int i = 0; i < 10; ++i) {
      sim.spawn(
          [](Simulator& s, int reps) -> Task<> {
            for (int r = 0; r < reps; ++r) co_await s.delay(ns(10 + reps));
          }(sim, i + 1),
          "p");
    }
    sim.run();
    return std::pair{sim.now(), sim.executed_events()};
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace gputn::sim
