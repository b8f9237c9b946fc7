// Event-free spin-waits (mem/spin_wait.hpp) against the polling loops they
// replace.
//
// The reference model is the polling loop itself, one event per read, under
// the read-order rule the elided wait relies on: every read of a wait is
// scheduled in the place the wait reserved at its start
// (sim::Simulator::ReadOrder). Randomized schedules run both side by side
// for the GPU work-group wait, the host CPU wait (with its busy ledger) and
// the GDS front-end wait, and must agree on every wake tick, on the order
// of everything that runs within a tick, and on the ledger. The multi-word
// wait (MultiSpinWait) runs the same way against the two scans it replaced
// in serve: the GPU kernel's round-robin slot scan and the client
// completion reactor.
#include "mem/spin_wait.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
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
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
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
// Multi-word waits

/// serve's GPU kernel steps its round-robin scan one load_system apart; its
/// client reactor reads every flag once per CPU poll interval.
const Tick kLoad = gpu::GpuConfig{}.load_system_latency;
const Tick kPoll = cpu::CpuConfig{}.poll_interval;

/// A reference read, `d` after now, in the place `o` gives every read of
/// its wait.
struct OrderedRead {
  sim::Simulator* sim;
  const sim::Simulator::ReadOrder* order;
  Tick d;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim->schedule_ordered(sim->now() + d, *order, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

/// A round-robin slot scan: slot p waits for targets[p][0], [1], ... in
/// turn. Each wait scans the live slots from just after the slot last
/// served; after a wake the scan pauses `pause` (serving), and a slot
/// whose targets are all met retires.
struct ScanSpec {
  Tick start;
  Tick pause;
  std::vector<int> flags;
  std::vector<std::vector<std::uint64_t>> targets;
};

/// Log codes: the winning index of a wait, and the (slot, target) served.
int win_code(int id, std::size_t i) {
  return 100000 + id * 100 + static_cast<int>(i);
}
int served_code(int id, std::size_t p, std::size_t j) {
  return 200000 + id * 100 + static_cast<int>(p * 10 + j);
}
/// The wake pass's trigger of a reactor's j-th join.
int join_code(int id, std::size_t j) {
  return 300000 + id * 100 + static_cast<int>(j);
}

/// The live slots from `next` on, in scan order.
std::vector<std::size_t> live_slots(const ScanSpec& spec,
                                    const std::vector<std::size_t>& done,
                                    std::size_t next) {
  std::vector<std::size_t> live;
  for (std::size_t k = 0; k < done.size(); ++k) {
    std::size_t p = (next + k) % done.size();
    if (done[p] < spec.targets[p].size()) live.push_back(p);
  }
  return live;
}

/// Reference: one event per load_system, every read of a wait ordered at
/// its start (the kernel's old loop, under the read-order rule).
sim::Task<> polling_scan(sim::Simulator& sim, Memory& memory,
                         std::vector<Addr> flags, ScanSpec spec, int id,
                         Log& log) {
  std::vector<std::size_t> done(flags.size(), 0);
  std::size_t next = 0;
  for (;;) {
    std::vector<std::size_t> live = live_slots(spec, done, next);
    if (live.empty()) co_return;
    sim::Simulator::ReadOrder order;
    sim.reserve_order(order);
    std::size_t k = 0;
    for (;; k = (k + 1) % live.size()) {
      co_await OrderedRead{&sim, &order, kLoad};
      std::size_t p = live[k];
      if (memory.load<std::uint64_t>(flags[p]) >= spec.targets[p][done[p]]) {
        break;
      }
    }
    std::size_t p = live[k];
    log.push_back({sim.now(), win_code(id, k)});
    log.push_back({sim.now(), served_code(id, p, done[p]++)});
    next = p + 1;
    if (spec.pause > 0) co_await sim.delay(spec.pause);
  }
}

sim::Task<> elided_scan(sim::Simulator& sim, Memory& memory,
                        std::vector<Addr> flags, ScanSpec spec, int id,
                        Log& log) {
  std::vector<std::size_t> done(flags.size(), 0);
  std::size_t next = 0;
  MultiSpinWait scan(sim, memory);
  for (;;) {
    std::vector<std::size_t> live = live_slots(spec, done, next);
    if (live.empty()) co_return;
    scan.clear();
    for (std::size_t k = 0; k < live.size(); ++k) {
      std::size_t p = live[k];
      scan.add(flags[p], spec.targets[p][done[p]],
               static_cast<Tick>(k + 1) * kLoad);
    }
    std::size_t k =
        co_await scan.wait(static_cast<Tick>(live.size()) * kLoad);
    std::size_t p = live[k];
    log.push_back({sim.now(), win_code(id, k)});
    log.push_back({sim.now(), served_code(id, p, done[p]++)});
    next = p + 1;
    if (spec.pause > 0) co_await sim.delay(spec.pause);
  }
}

/// A completion reactor: each join, at `at` by an event scheduled at
/// `sched`, adds a waiter for `flag` >= value. The reactor reads every
/// waiter's flag each poll interval on one CPU core, then triggers every
/// satisfied waiter (swap-remove); it idles while no waiter is left.
struct ReactorSpec {
  struct Join {
    Tick sched;
    Tick at;
    int flag;
    std::uint64_t value;
  };
  std::vector<Join> joins;
};

struct Reactor {
  Reactor(sim::Simulator& sim, Memory& memory, std::size_t joins)
      : scan(sim, memory), cond(sim), left(joins) {}
  struct Waiter {
    Addr addr;
    std::uint64_t value;
    int code;
  };
  std::vector<Waiter> waiters;
  MultiSpinWait scan;
  sim::Condition cond;
  std::size_t left;

  void join(Addr addr, std::uint64_t value, int code) {
    waiters.push_back({addr, value, code});
    if (scan.parked()) scan.add(addr, value, kPoll);
    cond.notify_all();
  }
  /// The wake pass.
  void trigger(const Memory& memory, Tick now, Log& log) {
    for (std::size_t i = 0; i < waiters.size();) {
      if (memory.load<std::uint64_t>(waiters[i].addr) >= waiters[i].value) {
        log.push_back({now, waiters[i].code});
        --left;
        waiters[i] = waiters.back();
        waiters.pop_back();
      } else {
        ++i;
      }
    }
  }
};

/// Reference: the reactor's old compute(poll_interval)-then-scan loop,
/// every read of a wait ordered at its start.
sim::Task<> polling_reactor(sim::Simulator& sim, Memory& memory, Reactor& r,
                            obs::BusyTracker& core, int id, Log& log) {
  while (r.left > 0) {
    if (r.waiters.empty()) {
      co_await r.cond.wait();
      continue;
    }
    sim::Simulator::ReadOrder order;
    sim.reserve_order(order);
    std::size_t win = r.waiters.size();
    while (win == r.waiters.size()) {
      core.acquire(sim.now());
      co_await OrderedRead{&sim, &order, kPoll};
      core.release(sim.now());
      win = 0;
      while (win < r.waiters.size() &&
             memory.load<std::uint64_t>(r.waiters[win].addr) <
                 r.waiters[win].value) {
        ++win;
      }
    }
    log.push_back({sim.now(), win_code(id, win)});
    r.trigger(memory, sim.now(), log);
  }
}

sim::Task<> elided_reactor(sim::Simulator& sim, Memory& memory, Reactor& r,
                           obs::BusyTracker& core, int id, Log& log) {
  while (r.left > 0) {
    if (r.waiters.empty()) {
      co_await r.cond.wait();
      continue;
    }
    r.scan.clear();
    for (const auto& w : r.waiters) r.scan.add(w.addr, w.value, kPoll);
    std::size_t win = co_await r.scan.wait(kPoll, &core);
    log.push_back({sim.now(), win_code(id, win)});
    r.trigger(memory, sim.now(), log);
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
/// A store sent at `at` that lands at `lands`, at least kWireDelay later, as
/// a remote node's deposit would.
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

constexpr int kFlags = 3;

struct Schedule {
  std::vector<WaiterSpec> waiters;
  std::vector<ScanSpec> scans;
  std::vector<ReactorSpec> reactors;
  std::vector<StoreSpec> stores;
  std::vector<CopySpec> copies;
  std::vector<RemoteSpec> remotes;
  std::vector<NoiseSpec> noise;
  int flags = kFlags;
};

constexpr Tick kWireDelay = ns(50);
constexpr Tick kQuantum = ns(10);  // every local tick is a multiple
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

/// Runs `s` with polling waits, or with the elided waits they model.
Outcome run_schedule(const Schedule& s, bool elided) {
  sim::Simulator home;
  Memory memory(1 << 16);
  // 1 byte/ns and 2 ns startup: an 8-byte copy lands on a multiple of 10 ns.
  DmaEngine dma(home, memory, sim::Bandwidth::bytes_per_sec(1e9), ns(2));
  obs::BusyTracker core(8);
  std::vector<Addr> flags;
  for (int f = 0; f < s.flags; ++f) flags.push_back(memory.alloc(8));
  const std::vector<Kind> ks = kinds();
  Outcome out;
  std::vector<std::unique_ptr<PollingWait>> polling;
  std::vector<std::unique_ptr<Reactor>> reactors;

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
  for (std::size_t i = 0; i < s.scans.size(); ++i) {
    const ScanSpec& sc = s.scans[i];
    std::vector<Addr> addrs;
    for (int f : sc.flags) addrs.push_back(flags[static_cast<std::size_t>(f)]);
    home.schedule_at(sc.start, [&, addrs, sc, id = static_cast<int>(i)] {
      home.spawn(elided ? elided_scan(home, memory, addrs, sc, id, out.log)
                        : polling_scan(home, memory, addrs, sc, id, out.log),
                 "scan");
    });
  }
  for (std::size_t i = 0; i < s.reactors.size(); ++i) {
    const ReactorSpec& rs = s.reactors[i];
    reactors.push_back(
        std::make_unique<Reactor>(home, memory, rs.joins.size()));
    Reactor& r = *reactors.back();
    int id = 10 + static_cast<int>(i);
    home.spawn(elided ? elided_reactor(home, memory, r, core, id, out.log)
                      : polling_reactor(home, memory, r, core, id, out.log),
               "reactor");
    for (std::size_t j = 0; j < rs.joins.size(); ++j) {
      const ReactorSpec::Join& jn = rs.joins[j];
      home.schedule_at(jn.sched, [&, jn, code = join_code(id, j)] {
        home.schedule_at(jn.at, [&r, jn, code,
                                 addr = flags[static_cast<std::size_t>(
                                     jn.flag)]] {
          r.join(addr, jn.value, code);
        });
      });
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
      dma.copy(dst, src, 8);
    });
  }
  for (const RemoteSpec& r : s.remotes) {
    home.schedule_at(r.at, [&home, lands = r.lands,
                            fn = store(r.flag, r.value)] {
      home.schedule_at(lands, fn);
    });
  }
  for (std::size_t i = 0; i < s.noise.size(); ++i) {
    int id = -1 - static_cast<int>(i);
    home.schedule_at(s.noise[i].sched, [&, at = s.noise[i].at, id] {
      home.schedule_at(at, [&, id] { out.log.push_back({home.now(), id}); });
    });
  }
  for (int f = 0; f < s.flags; ++f) home.schedule_at(kEnd, store(f, 100));

  home.run();
  EXPECT_EQ(home.live_processes(), 0);
  out.busy_ps = core.busy_ps(home.now());
  out.ops = core.ops();
  out.in_use_max = core.in_use_max();
  home.reap_processes();
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
    r.at = quantum(400) + 5;  // never a local tick
    const WaiterSpec& w = s.waiters[rng() % s.waiters.size()];
    r.lands = grid_tick(rng, w);
    if (r.lands < r.at + kWireDelay) {
      r.lands = (r.at + kWireDelay + kQuantum - 1) / kQuantum * kQuantum;
    }
    r.flag = w.flag;
    r.value = value();
    s.remotes.push_back(r);
  }
  for (int i = 0; i < 30; ++i) {
    const WaiterSpec& w = s.waiters[rng() % s.waiters.size()];
    NoiseSpec n;
    n.at = grid_tick(rng, w);
    // Often scheduled well ahead of its tick.
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
    Outcome ref = run_schedule(s, false);
    ASSERT_EQ(ref.log.size(), entries);
    Outcome elided = run_schedule(s, true);
    EXPECT_TRUE(elided == ref) << first_difference(elided, ref);
  }
}

/// Round-robin scans and reactors with the single-wait schedule's stores,
/// copies, remote stores and noise, many of them on the scans' read ticks.
Schedule random_scan_schedule(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto quantum = [&](int max) {
    return kQuantum * static_cast<Tick>(rng() % static_cast<unsigned>(max));
  };
  auto value = [&] { return static_cast<std::uint64_t>(rng() % 5); };
  Schedule s;
  s.flags = 8;
  for (int i = 0; i < 2; ++i) {
    ScanSpec sc;
    sc.start = quantum(100);
    // Serving pauses on and off the load grid (serve's is 340 ns).
    const Tick pauses[] = {0, kLoad, ns(340)};
    sc.pause = pauses[rng() % 3];
    int slots = 2 + static_cast<int>(rng() % 3);
    for (int p = 0; p < slots; ++p) {
      sc.flags.push_back(static_cast<int>(rng() % 8));  // may share a flag
      std::vector<std::uint64_t> t;
      int n = 1 + static_cast<int>(rng() % 3);
      for (int j = 0; j < n; ++j) t.push_back(value());  // 0: satisfied
      sc.targets.push_back(t);
    }
    s.scans.push_back(sc);
  }
  ReactorSpec rs;
  for (int j = 0; j < 12; ++j) {
    ReactorSpec::Join jn;
    // Often on the poll grid of an earlier join, where a read may be.
    jn.at = j > 0 && rng() % 2 == 0
                ? rs.joins[rng() % rs.joins.size()].at +
                      kPoll * static_cast<Tick>(rng() % 6)
                : quantum(300);
    jn.sched = std::max<Tick>(0, jn.at - quantum(20));
    jn.flag = static_cast<int>(rng() % 8);
    jn.value = value();
    rs.joins.push_back(jn);
  }
  s.reactors.push_back(rs);
  // A read tick of scan `sc`'s first wait or, past it, of a later one
  // resumed on the load grid.
  auto scan_tick = [&](const ScanSpec& sc) {
    return sc.start + kLoad * static_cast<Tick>(1 + rng() % 16);
  };
  auto reactor_tick = [&] {
    return rs.joins[rng() % rs.joins.size()].at +
           kPoll * static_cast<Tick>(1 + rng() % 8);
  };
  for (int i = 0; i < 90; ++i) {
    StoreSpec st;
    st.flag = static_cast<int>(rng() % 8);
    switch (i % 3) {
      case 0: {
        const ScanSpec& sc = s.scans[rng() % s.scans.size()];
        st.at = scan_tick(sc);
        if (rng() % 2 == 0) st.flag = sc.flags[rng() % sc.flags.size()];
        // Before the scan starts (ahead of its reads on st.at), or later.
        st.sched = rng() % 2 == 0
                       ? std::max<Tick>(0, sc.start - kQuantum)
                       : st.at - quantum(12);
        break;
      }
      case 1:
        st.at = reactor_tick();
        st.sched = std::max<Tick>(0, st.at - quantum(20));
        break;
      default:
        st.at = quantum(400);
        st.sched = std::max<Tick>(0, st.at - quantum(30));
    }
    st.sched = std::max<Tick>(0, std::min(st.sched, st.at));
    st.value = value();
    s.stores.push_back(st);
  }
  for (int i = 0; i < 6; ++i) {
    s.copies.push_back({quantum(400), static_cast<int>(rng() % 8), value()});
  }
  for (int i = 0; i < 10; ++i) {
    RemoteSpec r;
    r.at = quantum(400) + 5;  // never a local tick
    r.lands = i % 2 == 0 ? scan_tick(s.scans[rng() % s.scans.size()])
                         : reactor_tick();
    if (r.lands < r.at + kWireDelay) {
      r.lands = (r.at + kWireDelay + kQuantum - 1) / kQuantum * kQuantum;
    }
    r.flag = static_cast<int>(rng() % 8);
    r.value = value();
    s.remotes.push_back(r);
  }
  for (int i = 0; i < 30; ++i) {
    NoiseSpec n;
    n.at = i % 2 == 0 ? scan_tick(s.scans[rng() % s.scans.size()])
                      : reactor_tick();
    n.sched = std::max<Tick>(0, n.at - quantum(40));
    s.noise.push_back(n);
  }
  return s;
}

TEST(MultiSpinWait, ElidedMatchesPollingScansOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    Schedule s = random_scan_schedule(seed);
    std::size_t entries = s.noise.size() + 2 * s.reactors[0].joins.size();
    for (const ScanSpec& sc : s.scans) {
      for (const auto& t : sc.targets) entries += 2 * t.size();
    }
    Outcome ref = run_schedule(s, false);
    // Every join is triggered, by a wake of its own or a shared one.
    ASSERT_GE(ref.log.size(), entries - s.reactors[0].joins.size());
    ASSERT_LE(ref.log.size(), entries);
    Outcome elided = run_schedule(s, true);
    EXPECT_TRUE(elided == ref) << first_difference(elided, ref);
  }
}

TEST(SpinWait, ForcedCasesMatchThePollingReference) {
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
  for (bool elided : {false, true}) {
    SCOPED_TRACE(elided);
    Outcome o = run_schedule(s, elided);
    EXPECT_EQ(o.log, want);
    EXPECT_EQ(o.busy_ps, 2 * static_cast<std::uint64_t>(ns(180)));
    EXPECT_EQ(o.ops, 6u);  // reads at 1000, 1060, 1120 fail, per waiter
    EXPECT_EQ(o.in_use_max, 2);
  }
}

TEST(MultiSpinWait, ForcedCasesMatchThePollingScans) {
  Schedule s;
  s.flags = 8;
  // Scan 0, slots on flags 0 and 1: reads at 120, 360, ... and 240, 480,
  // .... The store at 250 arms slot 1's read at 480; the later store at
  // 260 arms slot 0's earlier one at 360, which wins. The read at 480
  // loses; the next wait, on slot 1 alone, starts satisfied and wakes at
  // its own read at 480.
  s.scans.push_back({0, 0, {0, 1}, {{1}, {1}}});
  s.stores = {{ns(250), ns(250), 1, 1}, {ns(260), ns(260), 0, 1}};
  // Scan 1, flags 2 and 3, from 1000: a store on the read tick 1120
  // scheduled before the scan began is seen there; one on 1240 scheduled
  // after the next wait began (1120) is seen a period later, at 1360.
  s.scans.push_back({ns(1000), 0, {2, 3}, {{1}, {1}}});
  s.stores.push_back({0, ns(1120), 2, 1});
  s.stores.push_back({ns(1130), ns(1240), 3, 1});
  // Scan 2, flag 4, from 2000: raised at 2130 (arming 2240), lowered at
  // 2200, raised again at 2300: seen at 2360.
  s.scans.push_back({ns(2000), 0, {4}, {{2}}});
  s.stores.push_back({ns(2130), ns(2130), 4, 2});
  s.stores.push_back({ns(2200), ns(2200), 4, 0});
  s.stores.push_back({ns(2300), ns(2300), 4, 2});
  // The reactor, grid 3000 + k * 60: join 0 (flag 5) starts a wait, join 1
  // (flag 6) joins it at 3090 and is seen at 3120. The next wait, from
  // 3120, sees join 0's flag at 3180, stored by an event scheduled before
  // it began; join 2 joins on that tick ahead of the read, already
  // satisfied, and shares its read. Join 3 finds the reactor idle.
  s.reactors.push_back({{{ns(3000), ns(3000), 5, 1},
                         {ns(3090), ns(3090), 6, 1},
                         {ns(3100), ns(3180), 7, 0},
                         {ns(3400), ns(3400), 5, 1}}});
  s.stores.push_back({ns(3100), ns(3100), 6, 1});
  s.stores.push_back({ns(3000), ns(3180), 5, 1});
  const Log want = {
      {ns(360), win_code(0, 0)},     {ns(360), served_code(0, 0, 0)},
      {ns(480), win_code(0, 0)},     {ns(480), served_code(0, 1, 0)},
      {ns(1120), win_code(1, 0)},    {ns(1120), served_code(1, 0, 0)},
      {ns(1360), win_code(1, 0)},    {ns(1360), served_code(1, 1, 0)},
      {ns(2360), win_code(2, 0)},    {ns(2360), served_code(2, 0, 0)},
      {ns(3120), win_code(10, 1)},   {ns(3120), join_code(10, 1)},
      {ns(3180), win_code(10, 0)},   {ns(3180), join_code(10, 0)},
      {ns(3180), join_code(10, 2)},  {ns(3460), win_code(10, 0)},
      {ns(3460), join_code(10, 3)}};
  for (bool elided : {false, true}) {
    SCOPED_TRACE(elided);
    Outcome o = run_schedule(s, elided);
    EXPECT_EQ(o.log, want);
    // The reactor's core: 3000-3120, 3120-3180 and 3400-3460.
    EXPECT_EQ(o.busy_ps, static_cast<std::uint64_t>(ns(240)));
    EXPECT_EQ(o.ops, 4u);
    EXPECT_EQ(o.in_use_max, 1);
  }
}

TEST(MultiSpinWait, LosingReadOutlivesTheWaitThatArmedIt) {
  // Word 0 is read at 100, 200, ... and word 1 at 50, 150, .... The store
  // at 20 arms word 0's read at 100; the later store at 30 arms word 1's
  // earlier one at 50, which wins. The waiter's frame, and the handle in
  // it, are gone by 100: the losing read returns at once on state its
  // closure still owns.
  sim::Simulator sim;
  Memory memory(1 << 12);
  Addr a = memory.alloc(8);
  Addr b = memory.alloc(8);
  Log log;
  auto waiter = [&]() -> sim::Task<> {
    MultiSpinWait scan(sim, memory);
    scan.add(a, 1, ns(100));
    scan.add(b, 1, ns(50));
    std::size_t i = co_await scan.wait(ns(100));
    log.push_back({sim.now(), static_cast<int>(i)});
  };
  sim.spawn(waiter());
  sim.schedule_at(ns(20), [&] { memory.store<std::uint64_t>(a, 1); });
  sim.schedule_at(ns(30), [&] { memory.store<std::uint64_t>(b, 1); });
  sim.schedule_at(ns(100), [&] { log.push_back({sim.now(), -1}); });
  sim.run();
  EXPECT_EQ(log, (Log{{ns(50), 1}, {ns(100), -1}}));
  EXPECT_EQ(sim.live_processes(), 0);
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
  sim.schedule_at(ns(90), [&] { dma.copy(flag, src, 8); });
  sim.run();
  // The copy lands at 100 ns, after the GDS read there: seen at 200 ns.
  EXPECT_EQ(log, (Log{{ns(200), 0}}));
}

}  // namespace
}  // namespace gputn::mem
