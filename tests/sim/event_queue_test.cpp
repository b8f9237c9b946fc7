// Targeted tests for the calendar-queue event engine: the tiers and
// transitions that the black-box Simulator tests exercise only by accident.
//
// The engine's structure (see sim/simulator.hpp) is a now-FIFO, a bucketed
// wheel over a ~0.52 us horizon, and a far-future overflow heap. These tests
// pin the semantic contract at the seams: FIFO order at equal timestamps no
// matter which tier an event travelled through, promotion out of the
// overflow tier, run_until boundary behavior, and — as a catch-all — a
// randomized schedule checked event-for-event against a trivially correct
// reference model.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "../support/max_rss.hpp"
#include "sim/units.hpp"

namespace gputn::sim {
namespace {

// Far enough apart that consecutive events always live in the overflow tier
// (the wheel horizon is well under a millisecond).
constexpr Tick kFarApart = ms(1);

TEST(EventQueue, EqualTimestampFifoAcrossTiers) {
  // Three events at the same timestamp, scheduled by three different routes:
  // directly into the wheel, through the overflow tier (scheduled while the
  // timestamp was beyond the horizon, promoted later), and from a running
  // event at now() (the FIFO). Sequence order must survive all three.
  Simulator sim;
  std::vector<int> order;
  const Tick t = kFarApart + ns(100);

  sim.schedule_at(t, [&] {  // seq 0: overflow at schedule time, promoted
    order.push_back(0);
    sim.schedule_at(t, [&] { order.push_back(3); });  // FIFO while running
  });
  // Drag the cursor close enough that t is inside the horizon, then add
  // wheel-direct events at the same timestamp.
  sim.schedule_at(kFarApart, [&] {
    sim.schedule_at(t, [&] { order.push_back(1); });  // seq: after promotionee
    sim.schedule_at(t, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), t);
}

TEST(EventQueue, FarFutureEventsPromoteInOrder) {
  // A sparse schedule spanning many horizons: every event starts in the
  // overflow tier and must be promoted exactly once, in time order.
  Simulator sim;
  std::vector<int> order;
  for (int i = 9; i >= 0; --i) {
    sim.schedule_at(kFarApart * (i + 1), [&order, i] { order.push_back(i); });
  }
  std::uint64_t executed = sim.run();
  EXPECT_EQ(executed, 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sim.now(), kFarApart * 10);
}

TEST(EventQueue, PromotionPreservesSeqAgainstLaterWheelInserts) {
  // An overflow event and a wheel-direct event at the same far timestamp:
  // the overflow one was scheduled first, so it must run first even though
  // it reaches the bucket second (promotion happens after the direct
  // insert's bucket already exists).
  Simulator sim;
  std::vector<int> order;
  const Tick t = 2 * kFarApart;
  sim.schedule_at(t, [&] { order.push_back(0); });           // overflow now
  sim.schedule_at(t - us(400), [&] {                         // inside horizon
    sim.schedule_at(t, [&] { order.push_back(1); });         // wheel-direct
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, RunUntilBoundaryIsInclusive) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(ns(10), [&] { order.push_back(1); });
  sim.schedule_at(ns(20), [&] { order.push_back(2); });  // exactly at limit
  sim.schedule_at(ns(20) + 1, [&] { order.push_back(3); });

  std::uint64_t executed = sim.run_until(ns(20));
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // The clock parks exactly at the limit even though a later event is
  // pending one picosecond after it.
  EXPECT_EQ(sim.now(), ns(20));

  executed = sim.run();
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilAdvancesClockPastIdleGaps) {
  // No events at all: the clock still advances to the limit, and scheduling
  // relative to now() afterwards starts from there — including limits far
  // enough out that the wheel cursor must jump across the overflow tier.
  Simulator sim;
  EXPECT_EQ(sim.run_until(kFarApart * 3), 0u);
  EXPECT_EQ(sim.now(), kFarApart * 3);
  std::vector<int> order;
  sim.schedule_in(ns(1), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), kFarApart * 3 + ns(1));
}

TEST(EventQueue, ScheduleEarlierThanParkedPendingEvent) {
  // Regression: run_until stopping short of a pending future event must not
  // park the wheel cursor at that event's block. An event scheduled
  // afterwards at an earlier time (legal — run_until only advanced now() to
  // the limit) would land in a bucket behind the cursor, execute a wheel
  // lap late, and drag now() backwards.
  Simulator sim;
  std::vector<std::pair<int, Tick>> order;
  sim.schedule_at(ns(300), [&] { order.emplace_back(1, sim.now()); });
  EXPECT_EQ(sim.run_until(ns(1)), 0u);
  EXPECT_EQ(sim.now(), ns(1));
  sim.schedule_at(ns(2), [&] { order.emplace_back(2, sim.now()); });
  EXPECT_EQ(sim.run(), 2u);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], (std::pair<int, Tick>{2, ns(2)}));
  EXPECT_EQ(order[1], (std::pair<int, Tick>{1, ns(300)}));
  EXPECT_EQ(sim.now(), ns(300));
}

TEST(EventQueue, ScheduleEarlierThanParkedOverflowEvent) {
  // Same regression through the overflow tier: the pending event is beyond
  // the wheel horizon, so a blocked advance would have jumped the cursor to
  // the overflow block instead of a wheel block.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(kFarApart * 2, [&] { order.push_back(1); });
  EXPECT_EQ(sim.run_until(ns(1)), 0u);
  EXPECT_EQ(sim.now(), ns(1));
  sim.schedule_at(ns(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(sim.now(), kFarApart * 2);
}

TEST(EventQueue, RepeatedRunUntilBeforePendingEventKeepsOrder) {
  // Several run_until stops short of the same pending event, each followed
  // by a new earlier schedule: order must stay (when, seq) and the clock
  // must never move backwards.
  Simulator sim;
  std::vector<int> order;
  Tick last_now = 0;
  auto fire = [&](int id) {
    EXPECT_GE(sim.now(), last_now);
    last_now = sim.now();
    order.push_back(id);
  };
  sim.schedule_at(us(400), [&] { fire(99); });  // wheel, far block
  sim.schedule_at(kFarApart, [&] { fire(100); });  // overflow tier
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sim.run_until(ns(10) * (i + 1)), static_cast<std::uint64_t>(i != 0));
    sim.schedule_at(ns(10) * (i + 1) + ns(5), [&, i] { fire(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 99, 100}));
  EXPECT_EQ(sim.now(), kFarApart);
}

TEST(EventQueue, RunUntilStopsBetweenEqualTimestampBatches) {
  // Events at the limit run; the batch extraction must not leak events
  // scheduled (at the same instant) by code running at the limit: those are
  // current-time events of a *later* call.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(ns(5), [&] {
    order.push_back(1);
    sim.schedule_in(0, [&] { order.push_back(2); });
  });
  EXPECT_EQ(sim.run_until(ns(5)), 2u);  // both run: same timestamp
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ThrowingEventLeavesTheRestOfItsBatchRunnable) {
  // An event that throws counts as consumed. The rest of its batch stays
  // runnable, in sequence order and ahead of what the batch scheduled at
  // its own tick, and so does a later event of the same wheel block.
  Simulator sim;
  std::vector<int> order;
  const Tick t = ns(10);
  sim.schedule_at(t, [&] {
    order.push_back(0);
    sim.schedule_at(t, [&] { order.push_back(4); });
  });
  sim.schedule_at(t, [&] {
    order.push_back(1);
    throw std::runtime_error("event failed");
  });
  sim.schedule_at(t, [&] { order.push_back(2); });
  sim.schedule_at(t, [&] { order.push_back(3); });
  sim.schedule_at(t + 1, [&] { order.push_back(5); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_EQ(sim.next_pending_time(), t);
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.now(), t + 1);
}

TEST(EventQueue, DrainedBucketsKeepNoStorage) {
  // A 256-event burst per 128 ps block, for a wheel lap of 4096 blocks plus
  // 8; the last event of each burst schedules the next. At most two buckets
  // hold events at once, so the wheel needs storage for two bursts. Drained
  // buckets that kept theirs would hold ~64 MiB by the end of the lap.
  constexpr int kBurst = 256;
  constexpr int kBlocks = 4096 + 8;
  struct Bursts {
    Simulator sim;
    int block = 0;
    std::uint64_t ran = 0;
    void schedule() {
      const Tick t = Tick{++block} * 128;
      for (int i = 1; i < kBurst; ++i) sim.schedule_at(t, [this] { ++ran; });
      sim.schedule_at(t, [this] {
        ++ran;
        if (block < kBlocks) schedule();
      });
    }
  };
  const long before = test::max_rss_kb();
  Bursts b;
  b.schedule();
  b.sim.run();
  EXPECT_EQ(b.ran, std::uint64_t{kBurst} * kBlocks);
  EXPECT_LT(test::max_rss_kb() - before, 16 * 1024);
}

// Reference model: the engine contract in its simplest possible form — a
// stable sort of (when, seq). Deliberately has none of the engine's
// structure (no wheel, no tiers), so structural bugs cannot cancel out.
// A reservation (Simulator::reserve_order) takes a seq and schedules
// nothing; an event in its place records the reserved seq.
class ReferenceQueue {
 public:
  void schedule(Tick when, int id) { schedule_at_seq(when, reserve(), id); }
  std::uint64_t reserve() { return seq_++; }
  void schedule_at_seq(Tick when, std::uint64_t seq, int id) {
    items_.push_back({when, seq, id});
  }
  std::vector<int> drain() {
    std::stable_sort(items_.begin(), items_.end(),
                     [](const Rec& a, const Rec& b) {
                       return a.when != b.when ? a.when < b.when
                                               : a.seq < b.seq;
                     });
    std::vector<int> order;
    order.reserve(items_.size());
    for (const Rec& r : items_) order.push_back(r.id);
    return order;
  }

 private:
  struct Rec {
    Tick when;
    std::uint64_t seq;
    int id;
  };
  std::vector<Rec> items_;
  std::uint64_t seq_ = 0;
};

// Deterministic pseudo-random stream (splitmix64): fixed seed, so this test
// is a golden test — the same schedule every run, on every platform.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

std::vector<int> run_randomized(std::uint64_t seed) {
  // A delay mix chosen to hit every tier: zero-delay (FIFO), clustered
  // short delays (wheel, with frequent equal timestamps thanks to the
  // coarse quantization), and occasional far jumps (overflow + promotion).
  // Some events reserve a place, as a spin-wait does when it begins, and
  // later ones schedule into reserved places (a spin-wait's reads) at a
  // future tick or, while the place is yet to run, at the current one: an
  // old seq lands behind newer items of its bucket, so buckets go out of
  // order as one or several runs. The run stops at random limits, and
  // events are scheduled between the stops too.
  Simulator sim;
  ReferenceQueue ref;
  std::vector<int> order;
  SplitMix rng{seed};
  int next_id = 0;

  constexpr int kInitial = 64;
  constexpr int kTotal = 5000;
  /// A reserved place, and the tick of its latest event: a place takes
  /// at most one event per tick, so (when, seq) keys stay unique.
  struct Place {
    Simulator::ReadOrder order;
    Tick last = -1;
  };
  std::vector<Place> places;
  struct Driver {
    Simulator* sim;
    ReferenceQueue* ref;
    std::vector<int>* order;
    SplitMix* rng;
    int* next_id;
    std::vector<Place>* places;
    Tick delay() const {
      switch (rng->next() % 8) {
        case 0: return 0;                                      // FIFO
        case 1: return static_cast<Tick>(rng->next() % 128);
        case 7: return us(1) + static_cast<Tick>(rng->next() % ns(100));
                                                               // overflow
        default: return static_cast<Tick>(rng->next() % ns(100));
      }
    }
    void fire(int id) const {
      order->push_back(id);
      if (*next_id >= kTotal) return;
      // Each executed event reschedules up to two successors, so the live
      // set grows and shrinks and equal timestamps occur naturally.
      int n = 1 + static_cast<int>(rng->next() % 2);
      for (int i = 0; i < n && *next_id < kTotal; ++i) {
        // One successor in eight first reserves a place; three in eight
        // take a reserved place when one is open.
        std::uint64_t kind = rng->next() % 8;
        if (kind == 0) {
          Place p;
          sim->reserve_order(p.order);
          EXPECT_EQ(p.order.seq, ref->reserve());
          places->push_back(p);
        }
        int id2 = (*next_id)++;
        Driver self = *this;
        if (kind <= 2 && !places->empty()) {
          std::size_t k = rng->next() % places->size();
          Place& p = (*places)[k];
          Tick now = sim->now();
          Tick when = now;
          // The current tick only for a place reserved at an earlier one,
          // as a spin-wait's first read comes a period after its start.
          if (p.last >= now || p.order.t0 >= now ||
              !sim->yet_to_run(p.order) || rng->next() % 2 == 0) {
            when = std::max(now, p.last) + 1 + delay();
          }
          p.last = when;
          sim->schedule_ordered(when, p.order, [self, id2] { self.fire(id2); });
          ref->schedule_at_seq(when, p.order.seq, id2);
          // A wait ends after some reads.
          if (rng->next() % 4 == 0) {
            (*places)[k] = places->back();
            places->pop_back();
          }
        } else {
          Tick d = delay();
          sim->schedule_in(d, [self, id2] { self.fire(id2); });
          ref->schedule(sim->now() + d, id2);
        }
      }
    }
  };
  Driver drv{&sim, &ref, &order, &rng, &next_id, &places};
  for (int i = 0; i < kInitial; ++i) {
    Tick at = static_cast<Tick>(rng.next() % ns(50));
    int id = next_id++;
    sim.schedule_at(at, [drv, id] { drv.fire(id); });
    ref.schedule(at, id);
  }
  while (sim.pending_events() > 0) {
    sim.run_until(sim.now() + static_cast<Tick>(rng.next() % ns(200)));
    if (next_id < kTotal && rng.next() % 2 == 0) {
      Tick at = sim.now() + static_cast<Tick>(rng.next() % ns(100));
      int id = next_id++;
      sim.schedule_at(at, [drv, id] { drv.fire(id); });
      ref.schedule(at, id);
    }
  }
  EXPECT_EQ(order.size(), static_cast<std::size_t>(kTotal));
  // The reference model cannot replay mid-run scheduling, but it recorded
  // every (when, seq) as the run produced it — its stable sort is the
  // ground-truth execution order.
  EXPECT_EQ(order, ref.drain());
  return order;
}

TEST(EventQueue, RandomizedScheduleMatchesReferenceModel) {
  run_randomized(0x5eedull);
  run_randomized(0xfeedfaceull);
}

TEST(EventQueue, RandomizedScheduleIsDeterministic) {
  // Same seed, two fresh simulators: identical execution order. This is the
  // engine-level guarantee behind the workload-level Deterministic tests.
  std::vector<int> a = run_randomized(42);
  std::vector<int> b = run_randomized(42);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace gputn::sim
