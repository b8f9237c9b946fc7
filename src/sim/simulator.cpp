#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <utility>

namespace gputn::sim {

std::string format_time(Tick t) {
  char buf[64];
  if (t < ns(10)) {
    std::snprintf(buf, sizeof(buf), "%ldps", static_cast<long>(t));
  } else if (t < us(10)) {
    std::snprintf(buf, sizeof(buf), "%.3fns", to_ns(t));
  } else if (t < ms(10)) {
    std::snprintf(buf, sizeof(buf), "%.3fus", to_us(t));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fms", to_ms(t));
  }
  return buf;
}

Simulator::Simulator() = default;

Simulator::~Simulator() { reap_processes(); }

void Simulator::reap_processes() {
  // Destroy still-suspended detached frames (a deadlocked rank, a
  // persistent work-group parked on a flag, a process that threw).
  // Destroying a suspended coroutine runs its locals' destructors; nothing
  // is resumed. Every process not yet finished is on the list, so none is
  // left live.
  for (auto& state : live_states_) {
    if (state->frame) {
      state->frame.destroy();
      state->frame = nullptr;
    }
    state->slot = Process::kReaped;
  }
  live_states_.clear();
  live_processes_ = 0;
}

void Simulator::schedule_overflow(Tick when, std::uint64_t seq, EventFn fn) {
  std::uint64_t blk = block_of(when);
  overflow_.push_back(Item{when, seq, std::move(fn)});
  std::push_heap(overflow_.begin(), overflow_.end(), after);
  if (blk < overflow_min_blk_) overflow_min_blk_ = blk;
}

void Simulator::reserve_order(ReadOrder& o) {
  o.t0 = now_;
  o.seq = next_seq_++;
}

void Simulator::schedule_ordered(Tick when, const ReadOrder& o, EventFn fn) {
  assert((when > now_ || (when == now_ && yet_to_run(o))) &&
         "a spin-wait read must be scheduled after the running event");
  pending_++;
  if (when == now_) {
    late_.push_back(Item{when, o.seq, std::move(fn)});
    return;
  }
  if (block_of(when) < cur_blk_ + kBuckets) {
    insert_into_wheel(Item{when, o.seq, std::move(fn)});
  } else {
    schedule_overflow(when, o.seq, std::move(fn));
  }
}

void Simulator::merge_late() {
  for (Item& it : late_) {
    auto pos = std::lower_bound(
        drain_.begin() + static_cast<std::ptrdiff_t>(drain_head_),
        drain_.end(), it, before);
    drain_.insert(pos, std::move(it));
  }
  late_.clear();
}

Tick Simulator::next_pending_time() const {
  if (fifo_head_ < fifo_.size()) return now_;
  Tick best = kTickMax;
  if (!overflow_.empty()) best = overflow_.front().when;
  if (!drain_.empty()) {
    // Drain items all live in the cursor's block, and later wheel buckets
    // hold strictly later blocks — but the cursor bucket itself may have
    // gained items after the swap, so scan it alongside drain_'s head.
    Tick m = drain_[drain_head_].when;
    for (const Item& it : wheel_[cur_blk_ & kBucketMask]) {
      m = std::min(m, it.when);
    }
    return std::min(best, m);
  }
  std::size_t off = next_occupied_offset();
  if (off != kBuckets) {
    for (const Item& it : wheel_[(cur_blk_ + off) & kBucketMask]) {
      best = std::min(best, it.when);
    }
  }
  return best;
}

void Simulator::insert_into_wheel(Item&& item) {
  std::uint64_t blk = block_of(item.when);
  std::size_t idx = blk & kBucketMask;
  auto& bucket = wheel_[idx];
  OccWord& w = occ_[idx >> 6];
  std::uint64_t bit = std::uint64_t{1} << (idx & 63);
  // A reserved seq (schedule_ordered) or a promoted item can be older than
  // the bucket's last item, so compare the full (when, seq) key.
  if (bucket.empty()) {
    take_spare(bucket);
  } else if (before(item, bucket.back())) {
    w.dirty |= bit;
  }
  bucket.push_back(std::move(item));
  w.occ |= bit;
  occ_summary_ |= std::uint64_t{1} << (idx >> 6);
}

std::size_t Simulator::next_occupied_offset() const {
  std::size_t start = cur_blk_ & kBucketMask;
  std::size_t w0 = start >> 6;
  unsigned bit0 = static_cast<unsigned>(start & 63);
  // Bits at or after the cursor within its own occupancy word.
  std::uint64_t word = occ_[w0].occ & (~std::uint64_t{0} << bit0);
  if (word) {
    std::size_t bit =
        w0 * 64 + static_cast<std::size_t>(std::countr_zero(word));
    return bit - start;
  }
  // Later words, in circular order: rotate the summary so its bit 0 is
  // word w0+1, bit 62 is word w0+63, and bit 63 is w0 itself — the
  // wrap-around case, excluded here and handled below restricted to the
  // pre-cursor bits already masked out of the first check.
  std::uint64_t later =
      std::rotr(occ_summary_, static_cast<int>((w0 + 1) & 63)) &
      ~(std::uint64_t{1} << 63);
  if (later) {
    std::size_t wi =
        (w0 + 1 + static_cast<std::size_t>(std::countr_zero(later))) &
        (kOccWords - 1);
    std::size_t bit =
        wi * 64 + static_cast<std::size_t>(std::countr_zero(occ_[wi].occ));
    return (bit + kBuckets - start) & kBucketMask;
  }
  word = occ_[w0].occ & (bit0 ? ~(~std::uint64_t{0} << bit0) : 0);
  if (word) {
    std::size_t bit =
        w0 * 64 + static_cast<std::size_t>(std::countr_zero(word));
    return (bit + kBuckets - start) & kBucketMask;
  }
  return kBuckets;
}

void Simulator::promote_overflow() {
  while (!overflow_.empty() &&
         block_of(overflow_.front().when) < cur_blk_ + kBuckets) {
    std::pop_heap(overflow_.begin(), overflow_.end(), after);
    insert_into_wheel(std::move(overflow_.back()));
    overflow_.pop_back();
  }
  overflow_min_blk_ = overflow_.empty() ? ~std::uint64_t{0}
                                        : block_of(overflow_.front().when);
}

template <bool Bounded>
inline bool Simulator::advance_to_next_batch(Tick limit) {
  // When Bounded, the cursor must never be committed past block_of(limit):
  // a blocked run_until would otherwise park it at the pending event's
  // block, and events scheduled afterwards at earlier times (legal:
  // run_until only advances now() to the limit) would land in buckets
  // behind the cursor, where the bitmap scan reads them as ~a wheel lap in
  // the future — executing them after later events with now() moving
  // backwards. Every event in block B has when >= B << kBlockShift, so any
  // block past limit_blk holds only events past the limit and the advance
  // can refuse it without looking inside. run() (Bounded=false) drains the
  // queue completely, so its instantiation folds all of this away.
  const std::uint64_t limit_blk = Bounded ? block_of(limit) : 0;
  for (;;) {
    // Fast path: the cursor's own block still has events (in its bucket or
    // already in drain_ — the occupancy bit covers both). Nothing pending
    // can be earlier — every other wheel item is in a later block (the
    // cursor never passes a non-drained block) and the overflow tier is
    // beyond the horizon — so skip the bitmap scan and promotion check.
    std::size_t cidx = cur_blk_ & kBucketMask;
    if (occ_[cidx >> 6].occ & (std::uint64_t{1} << (cidx & 63))) {
      return prepare_batch<Bounded>(cur_blk_, limit);
    }
    std::size_t off = next_occupied_offset();
    if (off == kBuckets) {
      if constexpr (Bounded) {
        // Everything pending is in the overflow tier, past the limit's
        // block? Refuse without moving the cursor (overflow_min_blk_ is ~0
        // when the tier is empty too, so this also covers "no events").
        if (overflow_min_blk_ > limit_blk) return false;
      } else {
        if (overflow_.empty()) return false;
      }
      // Wheel empty: jump the cursor to the earliest overflow block, then
      // promote everything that now fits the horizon and rescan.
      cur_blk_ = overflow_min_blk_;
      promote_overflow();
      continue;
    }
    std::uint64_t blk = cur_blk_ + off;
    if (blk != cur_blk_) {
      if constexpr (Bounded) {
        // blk > limit_blk implies blk != cur_blk_ (the cursor never sits
        // past limit_blk), so the refusal lives on the advance branch only.
        if (blk > limit_blk) [[unlikely]] return false;
      }
      cur_blk_ = blk;
      // Every cursor advance must re-promote so no overflow item is ever
      // behind the horizon. Promoted items land at blocks >= the old
      // cur_blk_ + kBuckets > blk, so the chosen bucket stays authoritative.
      if (overflow_min_blk_ < cur_blk_ + kBuckets) promote_overflow();
    }
    return prepare_batch<Bounded>(blk, limit);
  }
}

template <bool Bounded>
inline bool Simulator::prepare_batch(std::uint64_t blk, Tick limit) {
  std::size_t idx = blk & kBucketMask;
  auto& bucket = wheel_[idx];
  OccWord& w = occ_[idx >> 6];
  std::uint64_t bit = std::uint64_t{1} << (idx & 63);
  if (!bucket.empty()) {
    bool out_of_order = (w.dirty & bit) != 0;
    w.dirty &= ~bit;
    if (drain_.empty()) {
      // O(1) hand-off: the whole bucket becomes the drain, and drain_'s
      // old (cleared) storage goes onto the spare stack.
      drain_.swap(bucket);
    } else {
      // Rare: new events landed in this block after it was swapped out
      // (scheduled by an event of an earlier batch at a later time inside
      // the same 128 ps block). Append them to the remainder and reorder.
      drain_.erase(drain_.begin(),
                   drain_.begin() + static_cast<std::ptrdiff_t>(drain_head_));
      drain_head_ = 0;
      for (Item& it : bucket) drain_.push_back(std::move(it));
      bucket.clear();
      out_of_order = true;
    }
    give_back(bucket);
    if (out_of_order) [[unlikely]] order_drain();
  }
  // drain_ is in (when, seq) order from its head: the head is the earliest
  // pending event, and the run of equal-when items after it is in
  // sequence order, so run_loop executing from the head yields the batch
  // in FIFO order.
  Tick min_when = drain_[drain_head_].when;
  if constexpr (Bounded) {
    if (min_when > limit) return false;
  }
  now_ = min_when;
  return true;
}

void Simulator::order_drain() {
  auto mid = std::is_sorted_until(drain_.begin(), drain_.end(), before);
  if (mid == drain_.end()) return;
  if (std::is_sorted(mid, drain_.end(), before)) {
    std::inplace_merge(drain_.begin(), mid, drain_.end(), before);
  } else {
    std::sort(drain_.begin(), drain_.end(), before);
  }
  assert(std::adjacent_find(drain_.begin(), drain_.end(),
                            [](const Item& a, const Item& b) {
                              return !before(a, b);
                            }) == drain_.end() &&
         "two pending events share a (when, seq) key");
}

inline void Simulator::finish_drain() {
  drain_.clear();
  drain_head_ = 0;
  std::size_t idx = cur_blk_ & kBucketMask;
  // The batch may have scheduled into its own block; only clear the
  // occupancy bit when the bucket really is empty too.
  if (wheel_[idx].empty()) {
    OccWord& w = occ_[idx >> 6];
    w.occ &= ~(std::uint64_t{1} << (idx & 63));
    if (w.occ == 0) occ_summary_ &= ~(std::uint64_t{1} << (idx >> 6));
  }
}

void Simulator::consume_after_throw(Tick t) {
  // The throwing event counts as consumed (seed semantics). The rest of
  // its batch must stay runnable and must precede anything the batch
  // appended to the FIFO, so it moves there in execution order.
  drain_[drain_head_].fn = EventFn{};
  ++drain_head_;
  merge_late();
  auto end = drain_.begin() + static_cast<std::ptrdiff_t>(drain_head_);
  std::vector<EventFn> rest;
  for (; end != drain_.end() && end->when == t; ++end) {
    rest.push_back(std::move(end->fn));
  }
  fifo_.insert(fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_),
               std::make_move_iterator(rest.begin()),
               std::make_move_iterator(rest.end()));
  drain_.erase(drain_.begin(), end);
  drain_head_ = 0;
  if (drain_.empty()) finish_drain();
}

template <bool Bounded>
std::uint64_t Simulator::run_loop(Tick limit) {
  std::uint64_t executed = 0;
  for (;;) {
    cur_seq_ = ~std::uint64_t{0};
    while (fifo_head_ < fifo_.size()) {
      // Reclaim the consumed prefix if a long same-timestamp chain keeps
      // appending; amortized O(1) per event.
      if (fifo_head_ >= 1024 && fifo_head_ * 2 >= fifo_.size()) {
        fifo_.erase(fifo_.begin(),
                    fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
        fifo_head_ = 0;
      }
      EventFn fn = std::move(fifo_[fifo_head_]);
      ++fifo_head_;
      --pending_;
      fn();
      ++executed;
    }
    if (fifo_head_ != 0) {
      fifo_.clear();
      fifo_head_ = 0;
    }
    if (!advance_to_next_batch<Bounded>(limit)) break;
    // Execute the batch — every drain_ item at now() from the head — in
    // place, no relocation into scratch: user code can never reach drain_
    // (schedules at now() land in the FIFO, later ones in the bucket
    // vector), so the storage is stable across the call. Anything the
    // batch schedules at now() runs on the next pass — correct, because
    // every batch item's sequence number predates anything scheduled while
    // it runs. If an event throws it counts as consumed (seed semantics;
    // the local executed count is lost on propagation).
    const Tick t = now_;
    for (;;) {
      --pending_;
      Item& it = drain_[drain_head_];
      cur_seq_ = it.seq;
      try {
        it.fn();
      } catch (...) {
        cur_seq_ = ~std::uint64_t{0};
        consume_after_throw(t);
        throw;
      }
      it.fn = EventFn{};
      ++drain_head_;
      ++executed;
      if (!late_.empty()) [[unlikely]] merge_late();
      if (drain_head_ == drain_.size() || drain_[drain_head_].when != t) break;
    }
    if (drain_head_ == drain_.size()) finish_drain();
  }
  cur_seq_ = ~std::uint64_t{0};
  executed_events_ += executed;
  return executed;
}

std::uint64_t Simulator::run() { return run_loop<false>(kTickMax); }

std::uint64_t Simulator::run_until(Tick until) {
  std::uint64_t executed = run_loop<true>(until);
  if (now_ < until) now_ = until;
  std::uint64_t blk = block_of(until);
  if (blk > cur_blk_) {
    cur_blk_ = blk;
    promote_overflow();
  }
  return executed;
}

void Simulator::finish_process(const Process& p) {
  --live_processes_;
  // The frame is currently executing (about to reach final_suspend); reclaim
  // it once it has suspended. The state stays in live_states_ until the
  // frame is actually destroyed so ~Simulator can still reclaim it if the
  // destroy event never runs (e.g. run_until stopped early).
  schedule_in(0, [this, state = live_states_[p.slot]] {
    if (state->frame) {
      state->frame.destroy();
      state->frame = nullptr;
    }
    // Swap-remove, unless reap_processes() already dropped it.
    std::size_t i = state->slot;
    if (i == Process::kReaped) return;
    std::swap(live_states_[i], live_states_.back());
    live_states_[i]->slot = i;
    live_states_.pop_back();
  });
}

void Simulator::spawn(Task<> task, std::string_view /*name*/) {
  auto state = std::make_shared<Process>();
  ++live_processes_;
  state->slot = live_states_.size();
  live_states_.push_back(state);
  // The state owns the frame before it first runs, so a process that
  // throws on its way out of spawn() is still reaped.
  state->frame = detail::run_then(std::move(task), [this, p = state.get()] {
                   finish_process(*p);
                 }).handle;
  state->frame.resume();
}

}  // namespace gputn::sim
