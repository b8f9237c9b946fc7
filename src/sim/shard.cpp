#include "sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gputn::sim {

ShardEngine::ShardEngine(int shards) {
  if (shards < 1) throw std::invalid_argument("ShardEngine: shards < 1");
  auto n = static_cast<std::size_t>(shards);
  sims_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  deferred_.resize(n);
  emit_seq_.assign(n, 0);
  mail_.resize(n * n);
  stats_.resize(n);
  win_executed_.assign(n, 0);
  win_error_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    sims_[s]->set_defer_sink(&deferred_[s], &emit_seq_[s]);
  }
  if (shards > 1) {
    workers_.reserve(n);
    for (int s = 0; s < shards; ++s) {
      workers_.emplace_back([this, s] { worker_main(s); });
    }
  }
}

ShardEngine::~ShardEngine() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_start_.notify_all();
    for (auto& w : workers_) w.join();
  }
}

void ShardEngine::post(int src, int dst, Tick when, EventFn fn) {
  auto s = static_cast<std::size_t>(src);
  mail_[s * sims_.size() + static_cast<std::size_t>(dst)].push_back(
      Mail{when, sims_[s]->now(), emit_seq_[s]++, std::move(fn)});
}

void ShardEngine::merge_barrier() {
  const std::size_t S = sims_.size();
  for (std::size_t dst = 0; dst < S; ++dst) {
    merge_scratch_.clear();
    read_scratch_.clear();
    for (auto& d : deferred_[dst]) {
      if (d.order != nullptr) {
        read_scratch_.push_back(std::move(d));
        continue;
      }
      merge_scratch_.push_back(MergeItem{d.when, d.t_sched,
                                         static_cast<int>(dst), d.seq,
                                         std::move(d.fn)});
    }
    deferred_[dst].clear();
    for (std::size_t src = 0; src < S; ++src) {
      auto& box = mail_[src * S + dst];
      for (auto& m : box) {
        merge_scratch_.push_back(MergeItem{m.when, m.t_sched,
                                           static_cast<int>(src), m.seq,
                                           std::move(m.fn)});
      }
      box.clear();
    }
    // Spin-wait reads are ordered as if scheduled at their wait's start
    // (Simulator::ReadOrder), so one may be due on the same tick as an
    // event this merge inserts with a fresh sequence number although the
    // wait began first. A wait begun during the window just run reserved
    // its number before that window's emissions: re-sequence its order
    // among them, keyed like the events it interleaves with. Orders from
    // earlier windows precede every emission merged here already.
    for (Simulator::ReadOrder* o : sims_[dst]->take_window_orders()) {
      merge_scratch_.push_back(MergeItem{0, o->t0, static_cast<int>(dst),
                                         o->emit, EventFn(), o});
    }
    // Canonical order: scheduling-time order first (sequentially,
    // same-`when` events execute in scheduling order, and an event
    // scheduled at an earlier tick always has the smaller sequence
    // number), then source shard, then the shard's own emit order. Only
    // same-`when` events compare in the calendar, so `when` needs no key:
    // one pass of fresh sequence numbers serves events and orders alike.
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const MergeItem& a, const MergeItem& b) {
                if (a.t_sched != b.t_sched) return a.t_sched < b.t_sched;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (auto& it : merge_scratch_) {
      if (it.order != nullptr) {
        it.order->seq = sims_[dst]->reserve_seq();
      } else {
        sims_[dst]->schedule_event(it.when, std::move(it.fn));
      }
    }
    // Deferred reads go in at their (re-sequenced) orders' places.
    for (auto& r : read_scratch_) {
      sims_[dst]->schedule_ordered(r.when, *r.order, std::move(r.fn));
    }
    merge_scratch_.clear();
  }
}

void ShardEngine::worker_main(int s) {
  auto idx = static_cast<std::size_t>(s);
  std::uint64_t seen = 0;
  for (;;) {
    Tick limit;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      limit = win_limit_;
    }
    std::uint64_t executed = 0;
    std::exception_ptr err;
    try {
      executed = sims_[idx]->run_window(limit);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      win_executed_[idx] = executed;
      win_error_[idx] = err;
      ++done_;
    }
    cv_done_.notify_one();
  }
}

bool ShardEngine::step(Tick limit) {
  const int S = shards();
  if (S == 1) {
    Simulator& sim = *sims_[0];
    Tick gmin = sim.next_pending_time();
    // kTickMax means "nothing pending" — return false even when the limit
    // is kTickMax itself (run() passes it), not just when gmin > limit.
    if (gmin > limit || gmin == kTickMax) return false;
    // Degenerate single-shard window: no horizon, no merge — just a
    // bounded slice of the one sequential calendar, so interleaving
    // step() with caller inspection cannot change any result.
    Tick la = lookahead_ > 0 ? lookahead_ : ns(100);
    Tick horizon = gmin > kTickMax - la ? kTickMax : gmin + la;
    Tick wl = std::min(horizon == kTickMax ? kTickMax : horizon - 1, limit);
    std::uint64_t executed = sim.run_window(wl);
    ++rounds_;
    stats_[0].events += executed;
    if (executed > 0) {
      stats_[0].busy_ps += static_cast<std::uint64_t>(wl - gmin) + 1;
    } else {
      stats_[0].idle_ps += static_cast<std::uint64_t>(wl - gmin) + 1;
      ++stats_[0].barrier_waits;
    }
    return true;
  }

  merge_barrier();
  Tick gmin = kTickMax;
  for (auto& sp : sims_) gmin = std::min(gmin, sp->next_pending_time());
  if (gmin > limit || gmin == kTickMax) return false;
  assert(lookahead_ > 0 && "multi-shard run without a lookahead");
  Tick horizon =
      gmin > kTickMax - lookahead_ ? kTickMax : gmin + lookahead_;
  Tick wl = std::min(horizon == kTickMax ? kTickMax : horizon - 1, limit);

  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& sp : sims_) sp->set_horizon(horizon);
    win_limit_ = wl;
    done_ = 0;
    ++epoch_;
  }
  cv_start_.notify_all();
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return done_ == S; });
  }
  for (auto& sp : sims_) sp->set_horizon(kTickMax);
  for (int s = 0; s < S; ++s) {
    if (win_error_[static_cast<std::size_t>(s)]) {
      std::exception_ptr e = win_error_[static_cast<std::size_t>(s)];
      for (auto& err : win_error_) err = nullptr;
      std::rethrow_exception(e);
    }
  }
  ++rounds_;
  std::uint64_t span = static_cast<std::uint64_t>(wl - gmin) + 1;
  for (int s = 0; s < S; ++s) {
    auto idx = static_cast<std::size_t>(s);
    stats_[idx].events += win_executed_[idx];
    if (win_executed_[idx] > 0) {
      stats_[idx].busy_ps += span;
    } else {
      stats_[idx].idle_ps += span;
      ++stats_[idx].barrier_waits;
    }
  }
  return true;
}

Tick ShardEngine::next_time() {
  merge_barrier();
  Tick g = kTickMax;
  for (auto& sp : sims_) g = std::min(g, sp->next_pending_time());
  return g;
}

void ShardEngine::finish_until(Tick until) {
  // step() merges before refusing, so mailboxes and deferral buffers are
  // empty here; run_until parks each clock (and wheel cursor) at `until`
  // exactly as the sequential engine would.
  merge_barrier();
  for (auto& sp : sims_) sp->run_until(until);
}

std::uint64_t ShardEngine::run_until(Tick until) {
  if (shards() == 1) {
    Tick t0 = sims_[0]->now();
    std::uint64_t executed = sims_[0]->run_until(until);
    ++rounds_;
    stats_[0].events += executed;
    stats_[0].busy_ps += static_cast<std::uint64_t>(sims_[0]->now() - t0);
    return executed;
  }
  std::uint64_t before = executed_events();
  while (step(until)) {
  }
  finish_until(until);
  return executed_events() - before;
}

std::uint64_t ShardEngine::run() {
  if (shards() == 1) {
    Tick t0 = sims_[0]->now();
    std::uint64_t executed = sims_[0]->run();
    ++rounds_;
    stats_[0].events += executed;
    stats_[0].busy_ps += static_cast<std::uint64_t>(sims_[0]->now() - t0);
    return executed;
  }
  std::uint64_t before = executed_events();
  while (step(kTickMax)) {
  }
  merge_barrier();
  // Sequential run() leaves the one clock at the last executed event;
  // align every shard there so cross-phase code (spawns between phases,
  // stats exports) sees a single consistent clock.
  Tick last = 0;
  for (auto& sp : sims_) last = std::max(last, sp->now());
  for (auto& sp : sims_) sp->run_until(last);
  return executed_events() - before;
}

int ShardEngine::live_processes() const {
  int n = 0;
  for (const auto& sp : sims_) n += sp->live_processes();
  return n;
}

std::uint64_t ShardEngine::executed_events() const {
  std::uint64_t n = 0;
  for (const auto& sp : sims_) n += sp->executed_events();
  return n;
}

void ShardEngine::reap_processes() {
  for (auto& sp : sims_) sp->reap_processes();
}

}  // namespace gputn::sim
