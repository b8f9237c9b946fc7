// Event-free spin-waits (mem/spin_wait.hpp) against the polling loops they
// replace.
//
// The reference model is the polling loop itself, one event per read, under
// the read-order rule the elided wait relies on: every read of a wait is
// scheduled in the place the wait reserved at its start
// (sim::Simulator::ReadOrder). Randomized schedules run both side by side
// for the GPU work-group wait, the host CPU wait (with its busy ledger) and
// the GDS front-end wait, sequentially and on a 2-shard engine, and must
// agree on every wake tick, on the order of everything that runs within a
// tick, and on the ledger.
#include "mem/spin_wait.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cpu/cpu.hpp"
#include "gpu/gpu.hpp"
#include "mem/dma.hpp"
#include "mem/memory.hpp"
#include "obs/busy.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace gputn::mem {
namespace {

using sim::ns;
using sim::Tick;

struct Kind {
  PollGrid grid;
  bool ledger;
};

/// The three waiter kinds, on their models' default timings.
std::vector<Kind> kinds() {
  gpu::GpuConfig g;
  cpu::CpuConfig c;
  return {
      {{g.load_system_latency, g.load_system_latency + g.poll_interval},
       false},
      {{0, c.poll_interval}, true},
      {{0, g.poll_interval}, false},
  };
}

using Log = std::vector<std::pair<Tick, int>>;

/// Reference model: the polling loop, one event per read. A CPU poller
/// holds its core through each compute(period) between failed reads.
class PollingWait {
 public:
  PollingWait(sim::Simulator& sim, Memory& memory, Addr addr, Kind kind,
              obs::BusyTracker* core, std::vector<std::uint64_t> targets,
              int id, Log& log)
      : sim_(&sim), mem_(&memory), addr_(addr), grid_(kind.grid),
        core_(kind.ledger ? core : nullptr), targets_(std::move(targets)),
        id_(id), log_(&log) {}

  /// Runs the waits for targets_[0], targets_[1], ... back to back.
  void begin() {
    while (j_ < targets_.size()) {
      if (grid_.first == 0 && satisfied()) {
        finish();
        continue;
      }
      sim_->reserve_order(order_);
      if (core_ != nullptr) core_->acquire(sim_->now());
      Tick first = grid_.first > 0 ? grid_.first : grid_.period;
      sim_->schedule_ordered(sim_->now() + first, order_, [this] { read(); });
      return;
    }
  }

 private:
  bool satisfied() const {
    return mem_->load<std::uint64_t>(addr_) >= targets_[j_];
  }
  void finish() {
    log_->push_back({sim_->now(), id_ * 8 + static_cast<int>(j_)});
    ++j_;
  }
  void read() {
    if (core_ != nullptr) core_->release(sim_->now());
    if (!satisfied()) {
      if (core_ != nullptr) core_->acquire(sim_->now());
      sim_->schedule_ordered(sim_->now() + grid_.period, order_,
                             [this] { read(); });
      return;
    }
    sim_->release_order(order_);
    finish();
    begin();
  }

  sim::Simulator* sim_;
  Memory* mem_;
  Addr addr_;
  PollGrid grid_;
  obs::BusyTracker* core_;
  std::vector<std::uint64_t> targets_;
  std::size_t j_ = 0;
  int id_;
  Log* log_;
  sim::Simulator::ReadOrder order_;
};

sim::Task<> elided_waits(sim::Simulator& sim, Memory& memory, Addr addr,
                         Kind kind, obs::BusyTracker* core,
                         std::vector<std::uint64_t> targets, int id,
                         Log& log) {
  for (std::size_t j = 0; j < targets.size(); ++j) {
    co_await SpinWait(sim, memory, addr, targets[j], kind.grid,
                      kind.ledger ? core : nullptr);
    log.push_back({sim.now(), id * 8 + static_cast<int>(j)});
  }
}

// ---------------------------------------------------------------------------
// Schedules

struct WaiterSpec {
  int kind;
  int flag;
  Tick start;
  std::vector<std::uint64_t> targets;
};
/// A store to `flag` at `at`, by an event scheduled at `sched` <= at: one
/// scheduled before a wait starts runs ahead of that wait's read on the
/// same tick, one scheduled after runs behind it.
struct StoreSpec {
  Tick sched;
  Tick at;
  int flag;
  std::uint64_t value;
};
/// A DMA copy of `value` onto `flag`, issued at `at`.
struct CopySpec {
  Tick at;
  int flag;
  std::uint64_t value;
};
/// A store posted from the other shard at `at`, landing at `lands`.
struct RemoteSpec {
  Tick at;
  Tick lands;
  int flag;
  std::uint64_t value;
};
/// An event at `at`, scheduled at `sched`, that only logs itself.
struct NoiseSpec {
  Tick sched;
  Tick at;
};

struct Schedule {
  std::vector<WaiterSpec> waiters;
  std::vector<StoreSpec> stores;
  std::vector<CopySpec> copies;
  std::vector<RemoteSpec> remotes;
  std::vector<NoiseSpec> noise;
};

constexpr int kFlags = 3;
constexpr Tick kLookahead = ns(50);
constexpr Tick kQuantum = ns(10);  // every home-shard tick is a multiple
constexpr Tick kEnd = ns(5000);    // every flag is raised past all targets

struct Outcome {
  Log log;
  std::uint64_t busy_ps = 0;
  std::uint64_t ops = 0;
  int in_use_max = 0;
  bool operator==(const Outcome& o) const {
    return log == o.log && busy_ps == o.busy_ps && ops == o.ops &&
           in_use_max == o.in_use_max;
  }
};

/// Where `a` first departs from `b`, for failure messages.
std::string first_difference(const Outcome& a, const Outcome& b) {
  std::size_t i = 0;
  while (i < a.log.size() && i < b.log.size() && a.log[i] == b.log[i]) ++i;
  std::ostringstream os;
  if (i < a.log.size() || i < b.log.size()) {
    os << "log entry " << i << ": ";
    if (i < a.log.size()) os << a.log[i].first << "/" << a.log[i].second;
    os << " vs ";
    if (i < b.log.size()) os << b.log[i].first << "/" << b.log[i].second;
  }
  os << " ledger " << a.busy_ps << "/" << a.ops << "/" << a.in_use_max
     << " vs " << b.busy_ps << "/" << b.ops << "/" << b.in_use_max;
  return os.str();
}

/// Runs `s` on a `shards`-shard engine: memory, waiters and their stores on
/// shard 0, the remote stores' senders on the last shard.
Outcome run_schedule(const Schedule& s, bool elided, int shards) {
  sim::ShardEngine eng(shards);
  eng.set_lookahead(kLookahead);
  sim::Simulator& home = eng.shard(0);
  Memory memory(1 << 16);
  // 1 byte/ns and 2 ns startup: an 8-byte copy lands on a multiple of 10 ns.
  DmaEngine dma(home, memory, sim::Bandwidth::bytes_per_sec(1e9), ns(2));
  obs::BusyTracker core(8);
  std::vector<Addr> flags;
  for (int f = 0; f < kFlags; ++f) flags.push_back(memory.alloc(8));
  const std::vector<Kind> ks = kinds();
  Outcome out;
  std::vector<std::unique_ptr<PollingWait>> polling;

  for (std::size_t i = 0; i < s.waiters.size(); ++i) {
    const WaiterSpec& w = s.waiters[i];
    int id = static_cast<int>(i);
    Kind kind = ks[static_cast<std::size_t>(w.kind)];
    Addr addr = flags[static_cast<std::size_t>(w.flag)];
    if (elided) {
      home.schedule_at(w.start, [&, addr, kind, id, targets = w.targets] {
        home.spawn(
            elided_waits(home, memory, addr, kind, &core, targets, id,
                         out.log),
            "waiter");
      });
    } else {
      polling.push_back(std::make_unique<PollingWait>(
          home, memory, addr, kind, &core, w.targets, id, out.log));
      PollingWait* p = polling.back().get();
      home.schedule_at(w.start, [p] { p->begin(); });
    }
  }
  auto store = [&](int flag, std::uint64_t value) {
    return [&memory, addr = flags[static_cast<std::size_t>(flag)], value] {
      memory.store<std::uint64_t>(addr, value);
    };
  };
  for (const StoreSpec& st : s.stores) {
    home.schedule_at(st.sched, [&home, at = st.at,
                                fn = store(st.flag, st.value)] {
      home.schedule_at(at, fn);
    });
  }
  for (const CopySpec& c : s.copies) {
    Addr src = memory.alloc(8);
    memory.store<std::uint64_t>(src, c.value);
    home.schedule_at(c.at, [&, src, dst = flags[static_cast<std::size_t>(c.flag)]] {
      home.spawn(dma.copy(dst, src, 8), "copy");
    });
  }
  for (const RemoteSpec& r : s.remotes) {
    sim::Simulator& from = eng.shard(shards - 1);
    from.schedule_at(r.at, [&eng, &home, shards, lands = r.lands,
                            fn = store(r.flag, r.value)] {
      if (shards == 1) {
        home.schedule_at(lands, fn);
      } else {
        eng.post(shards - 1, 0, lands, fn);
      }
    });
  }
  for (std::size_t i = 0; i < s.noise.size(); ++i) {
    int id = -1 - static_cast<int>(i);
    home.schedule_at(s.noise[i].sched, [&, at = s.noise[i].at, id] {
      home.schedule_at(at, [&, id] { out.log.push_back({home.now(), id}); });
    });
  }
  for (int f = 0; f < kFlags; ++f) home.schedule_at(kEnd, store(f, 100));

  eng.run();
  EXPECT_EQ(home.live_processes(), 0);
  out.busy_ps = core.busy_ps(home.now());
  out.ops = core.ops();
  out.in_use_max = core.in_use_max();
  eng.reap_processes();
  return out;
}

/// Ticks on a waiter's read grid, or on the quantum grid.
Tick grid_tick(std::mt19937_64& rng, const WaiterSpec& w) {
  PollGrid g = kinds()[static_cast<std::size_t>(w.kind)].grid;
  Tick k = static_cast<Tick>(rng() % 8);
  return w.start + (g.first > 0 ? g.first : g.period) + k * g.period;
}

Schedule random_schedule(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto quantum = [&](int max) {
    return kQuantum * static_cast<Tick>(rng() % static_cast<unsigned>(max));
  };
  auto value = [&] { return static_cast<std::uint64_t>(rng() % 5); };
  Schedule s;
  for (int i = 0; i < 14; ++i) {
    WaiterSpec w;
    if (i > 0 && rng() % 3 == 0) {
      w = s.waiters.back();  // same flag, same kind, same start: one phase
    } else {
      w.kind = static_cast<int>(rng() % 3);
      w.flag = static_cast<int>(rng() % kFlags);
      w.start = quantum(250);
    }
    w.targets.clear();
    int n = 1 + static_cast<int>(rng() % 3);
    for (int j = 0; j < n; ++j) w.targets.push_back(value());  // 0: satisfied
    s.waiters.push_back(w);
  }
  for (int i = 0; i < 60; ++i) {
    StoreSpec st;
    if (i % 2 == 0) {
      // On a read tick of some waiter, ordered before or after that read.
      const WaiterSpec& w = s.waiters[rng() % s.waiters.size()];
      st.at = grid_tick(rng, w);
      st.flag = w.flag;
      st.sched = rng() % 2 == 0
                     ? std::max<Tick>(0, w.start - quantum(10) - kQuantum)
                     : w.start + (st.at - w.start) *
                                     static_cast<Tick>(rng() % 2);
    } else {
      st.at = quantum(400);
      st.flag = static_cast<int>(rng() % kFlags);
      st.sched = std::max<Tick>(0, st.at - quantum(30));
    }
    st.value = value();
    s.stores.push_back(st);
  }
  for (int i = 0; i < 6; ++i) {
    s.copies.push_back({quantum(400), static_cast<int>(rng() % kFlags),
                        value()});
  }
  for (int i = 0; i < 10; ++i) {
    RemoteSpec r;
    r.at = quantum(400) + 5;  // never a home-shard tick
    const WaiterSpec& w = s.waiters[rng() % s.waiters.size()];
    r.lands = grid_tick(rng, w);
    if (r.lands < r.at + kLookahead) {
      r.lands = (r.at + kLookahead + kQuantum - 1) / kQuantum * kQuantum;
    }
    r.flag = w.flag;
    r.value = value();
    s.remotes.push_back(r);
  }
  for (int i = 0; i < 30; ++i) {
    const WaiterSpec& w = s.waiters[rng() % s.waiters.size()];
    NoiseSpec n;
    n.at = grid_tick(rng, w);
    // Often scheduled more than a lookahead ahead: a deferred event.
    n.sched = std::max<Tick>(0, n.at - quantum(40));
    s.noise.push_back(n);
  }
  return s;
}

TEST(SpinWait, ElidedMatchesPollingReferenceOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Schedule s = random_schedule(seed);
    std::size_t entries = s.noise.size();
    for (const WaiterSpec& w : s.waiters) entries += w.targets.size();
    Outcome ref = run_schedule(s, false, 1);
    ASSERT_EQ(ref.log.size(), entries);
    Outcome elided = run_schedule(s, true, 1);
    EXPECT_TRUE(elided == ref) << first_difference(elided, ref);
    // A 2-shard window (50 ns) is shorter than every poll period, so most
    // wakes land past the horizon they were armed in.
    for (bool elide : {false, true}) {
      Outcome sharded = run_schedule(s, elide, 2);
      EXPECT_TRUE(sharded == ref)
          << "2 shards, elided " << elide << ": "
          << first_difference(sharded, ref);
    }
  }
}

TEST(SpinWait, ForcedCasesMatchOnOneAndTwoShards) {
  Schedule s;
  // GPU wait, reads at 120, 340, 560 ns: the flag is raised at 200 and
  // lowered at 300, before the read at 340 that its rise armed; raised
  // again at 400, it is seen at 560.
  s.waiters.push_back({0, 0, 0, {1}});
  s.stores = {{0, ns(200), 0, 1}, {0, ns(300), 0, 0}, {0, ns(400), 0, 1}};
  // Two CPU waits on one flag with one grid phase (reads at 1000, 1060,
  // ...): both see the store at 1130 at 1180, in the order they began.
  s.waiters.push_back({1, 1, ns(1000), {1}});
  s.waiters.push_back({1, 1, ns(1000), {1}});
  s.stores.push_back({0, ns(1130), 1, 1});
  // A GDS wait that starts satisfied does not suspend.
  s.waiters.push_back({2, 2, ns(2000), {0}});
  const Log want = {{ns(560), 0}, {ns(1180), 8}, {ns(1180), 16},
                    {ns(2000), 24}};
  // On 2 shards every wake here is armed less than a poll period ahead,
  // past the 50 ns window horizon.
  for (int shards : {1, 2}) {
    for (bool elided : {false, true}) {
      SCOPED_TRACE(::testing::Message() << shards << " shards, elided "
                                        << elided);
      Outcome o = run_schedule(s, elided, shards);
      EXPECT_EQ(o.log, want);
      EXPECT_EQ(o.busy_ps, 2 * static_cast<std::uint64_t>(ns(180)));
      EXPECT_EQ(o.ops, 6u);  // reads at 1000, 1060, 1120 fail, per waiter
      EXPECT_EQ(o.in_use_max, 2);
    }
  }
}

/// Wake tick of one wait on `flag >= 1`, started at 0, with a store of 1 at
/// `at` scheduled before (or after) the wait begins.
Tick wake_with_store(Kind kind, Tick at, bool store_first, bool elided) {
  sim::Simulator sim;
  Memory memory(1 << 12);
  obs::BusyTracker core(1);
  Addr flag = memory.alloc(8);
  auto do_store = [&] {
    sim.schedule_at(at, [&] { memory.store<std::uint64_t>(flag, 1); });
  };
  if (store_first) do_store();
  Log log;
  PollingWait polling(sim, memory, flag, kind, &core, {1}, 0, log);
  if (elided) {
    sim.spawn(elided_waits(sim, memory, flag, kind, &core, {1}, 0, log));
  } else {
    polling.begin();
  }
  if (!store_first) do_store();
  sim.run();
  EXPECT_EQ(log.size(), 1u);
  return log.empty() ? -1 : log[0].first;
}

TEST(SpinWait, StoreOnAReadTickIsSeenOnlyWhenOrderedBeforeTheRead) {
  for (bool elided : {false, true}) {
    SCOPED_TRACE(elided);
    Kind gpu = kinds()[0];  // reads at 120, 340, 560 ns
    EXPECT_EQ(wake_with_store(gpu, ns(340), true, elided), ns(340));
    EXPECT_EQ(wake_with_store(gpu, ns(340), false, elided), ns(560));
    EXPECT_EQ(wake_with_store(gpu, ns(341), true, elided), ns(560));
    Kind cpu = kinds()[1];  // reads at 0, 60, 120 ns
    EXPECT_EQ(wake_with_store(cpu, ns(120), true, elided), ns(120));
    EXPECT_EQ(wake_with_store(cpu, ns(120), false, elided), ns(180));
  }
}

TEST(SpinWait, CurrentTickWakeRunsAtItsPlaceInTheBatch) {
  // Events at 340 ns: A (scheduled before the wait), the wait's read, B
  // (scheduled after). A raises the flag, so the read sees it and the
  // waiter continues between A and B — not after B.
  for (bool elided : {false, true}) {
    SCOPED_TRACE(elided);
    sim::Simulator sim;
    Memory memory(1 << 12);
    Addr flag = memory.alloc(8);
    Log log;
    sim.schedule_at(ns(340), [&] {
      memory.store<std::uint64_t>(flag, 1);
      log.push_back({sim.now(), -1});
    });
    PollingWait polling(sim, memory, flag, kinds()[0], nullptr, {1}, 0, log);
    if (elided) {
      sim.spawn(elided_waits(sim, memory, flag, kinds()[0], nullptr, {1}, 0,
                             log));
    } else {
      polling.begin();
    }
    sim.schedule_at(ns(340), [&] { log.push_back({sim.now(), -2}); });
    sim.run();
    EXPECT_EQ(log, (Log{{ns(340), -1}, {ns(340), 0}, {ns(340), -2}}));
  }
}

TEST(SpinWait, CpuLedgerChargesOneCoreAndOneOpPerFailedRead) {
  sim::Simulator sim;
  Memory memory(1 << 12);
  cpu::Cpu cpu(sim, memory, cpu::CpuConfig{});
  Addr flag = memory.alloc(8);
  sim.schedule_at(ns(250), [&] { memory.store<std::uint64_t>(flag, 1); });
  Tick woke = -1;
  auto waiter = [&]() -> sim::Task<> {
    co_await cpu.wait_value_ge(flag, 1);
    woke = sim.now();
  };
  sim.spawn(waiter());
  sim.run();
  EXPECT_EQ(woke, ns(300));  // reads at 0, 60, ..., 240 fail; 300 sees it
  EXPECT_EQ(cpu.util().ops(), 5u);
  EXPECT_EQ(cpu.util().busy_ps(sim.now()),
            static_cast<std::uint64_t>(ns(300)));
  EXPECT_EQ(cpu.util().in_use_max(), 1);
  EXPECT_EQ(cpu.util().in_use(), 0);
  // Two timed events: the store and the wake. No read of its own.
  EXPECT_LE(sim.executed_events(), 4u);
}

TEST(SpinWait, DmaCopyOntoAWatchedFlagWakesTheWaiter) {
  sim::Simulator sim;
  Memory memory(1 << 12);
  DmaEngine dma(sim, memory, sim::Bandwidth::bytes_per_sec(1e9), ns(2));
  Addr flag = memory.alloc(8);
  Addr src = memory.alloc(8);
  memory.store<std::uint64_t>(src, 7);
  Log log;
  sim.spawn(elided_waits(sim, memory, flag, kinds()[2], nullptr, {7}, 0, log));
  sim.schedule_at(ns(90), [&] { sim.spawn(dma.copy(flag, src, 8)); });
  sim.run();
  // The copy lands at 100 ns, after the GDS read there: seen at 200 ns.
  EXPECT_EQ(log, (Log{{ns(200), 0}}));
}

}  // namespace
}  // namespace gputn::mem
