#include "mem/spin_wait.hpp"

#include <cassert>
#include <deque>

namespace gputn::mem {

namespace {

/// The poller's ledger at the wake: one unit held since t0, whose acquire
/// counted the first op, and one op per elapsed period.
void release_poller(obs::BusyTracker& core, sim::Tick t0, sim::Tick now,
                    sim::Tick period) {
  core.add_ops(static_cast<std::uint64_t>((now - t0) / period) - 1);
  core.release(now);
}

}  // namespace

// -- PolledWord ---------------------------------------------------------------

sim::Tick PolledWord::next_read(const sim::Simulator& sim,
                                const sim::Simulator::ReadOrder& o,
                                sim::Tick period) const {
  sim::Tick now = sim.now();
  if (now < base) return base;
  sim::Tick t = base + (now - base) / period * period;
  // A read on the store's own tick sees it only if ordered after it.
  if (t < now || !sim.yet_to_run(o)) t += period;
  return t;
}

bool PolledWord::poll(Memory& m, sim::Tick now, sim::Tick period) {
  if (satisfied(m)) return true;
  base = now + period;
  m.watch(this);
  return false;
}

// -- SpinWait -----------------------------------------------------------------

void SpinWait::suspend(sim::Callback<> resume) {
  assert(grid_.period > 0 && (core_ == nullptr || grid_.first == 0));
  resume_ = resume;
  sim_->reserve_order(order_);
  sim::Tick now = sim_->now();
  // A first == 0 wait has just failed its read at t0 (await_ready).
  base = now + (grid_.first > 0 ? grid_.first : grid_.period);
  if (core_ != nullptr) core_->acquire(now);
  if (satisfied(*mem_)) {
    arm();
  } else {
    mem_->watch(this);
  }
}

void SpinWait::on_store() {
  if (!satisfied(*mem_)) return;
  mem_->unwatch(this);
  arm();
}

void SpinWait::arm() {
  sim_->schedule_ordered(next_read(*sim_, order_, grid_.period), order_,
                         [this] { read(); });
}

void SpinWait::read() {
  sim::Tick now = sim_->now();
  if (!poll(*mem_, now, grid_.period)) return;
  if (core_ != nullptr) release_poller(*core_, order_.t0, now, grid_.period);
  resume_();
}

// -- MultiSpinWait ------------------------------------------------------------

struct MultiSpinWait::State : std::enable_shared_from_this<State> {
  static constexpr sim::Tick kIdle = -1;

  struct Word final : PolledWord {
    Word(State& s, Addr addr, std::uint64_t value, sim::Tick first)
        : PolledWord(addr, value), state(&s), first(first) {}
    void on_store() override { state->on_store(*this); }

    State* state;
    sim::Tick first;
    /// The tick of the read armed for this word, or kIdle.
    sim::Tick armed = kIdle;
  };

  State(sim::Simulator& s, Memory& m) : sim(&s), mem(&m) {}

  /// Place a word on the running wait's grid, then arm or park it. For a
  /// word joining a parked wait, base may lie in the past: next_read
  /// skips the reads before the join all the same.
  void start(Word& w) {
    assert(w.first > 0 && (core == nullptr || w.first % period == 0));
    w.base = order.t0 + w.first;
    if (w.satisfied(*mem)) {
      arm(w);
    } else {
      mem->watch(&w);
    }
  }

  void on_store(Word& w) {
    if (!w.satisfied(*mem)) return;
    mem->unwatch(&w);
    arm(w);
  }

  /// Arm w's winning read. Words armed for one tick share one read event.
  void arm(Word& w) {
    assert(w.armed == kIdle);
    sim::Tick t = w.next_read(*sim, order, period);
    bool queued = false;
    for (const Word& o : words) queued = queued || o.armed == t;
    w.armed = t;
    if (!queued) {
      sim->schedule_ordered(t, order, [s = shared_from_this(), g = gen] {
        s->read(g);
      });
    }
  }

  /// The reads due now, of every word armed for now, in index order.
  void read(std::uint64_t g) {
    if (g != gen) return;  // a losing read: the wait woke earlier
    sim::Tick now = sim->now();
    for (std::size_t i = 0; i < words.size(); ++i) {
      Word& w = words[i];
      if (w.armed != now) continue;
      w.armed = kIdle;
      if (w.poll(*mem, now, period)) {
        wake(i, now);
        return;
      }
    }
  }

  void wake(std::size_t i, sim::Tick now) {
    ++gen;
    parked = false;
    woke = i;
    for (Word& w : words) {
      mem->unwatch(&w);
      w.armed = kIdle;
    }
    if (core != nullptr) release_poller(*core, order.t0, now, period);
    waiter.resume();
  }

  sim::Simulator* sim;
  Memory* mem;
  // A deque: parked words stay put while words join.
  std::deque<Word> words;
  sim::Tick period = 0;
  obs::BusyTracker* core = nullptr;
  sim::Simulator::ReadOrder order;
  std::uint64_t gen = 0;
  bool parked = false;
  std::size_t woke = 0;
  std::coroutine_handle<> waiter;
};

MultiSpinWait::MultiSpinWait(sim::Simulator& sim, Memory& memory)
    : s_(std::make_shared<State>(sim, memory)) {}

void MultiSpinWait::clear() {
  assert(!s_->parked);
  s_->words.clear();
}

void MultiSpinWait::add(Addr addr, std::uint64_t value, sim::Tick first) {
  s_->words.emplace_back(*s_, addr, value, first);
  if (s_->parked) s_->start(s_->words.back());
}

bool MultiSpinWait::parked() const { return s_->parked; }

void MultiSpinWait::Awaiter::await_suspend(std::coroutine_handle<> h) {
  assert(period > 0 && !s->parked);
  s->waiter = h;
  s->period = period;
  s->core = core;
  s->parked = true;
  s->sim->reserve_order(s->order);
  if (core != nullptr) core->acquire(s->sim->now());
  for (State::Word& w : s->words) s->start(w);
}

std::size_t MultiSpinWait::Awaiter::await_resume() const noexcept {
  return s->woke;
}

}  // namespace gputn::mem
