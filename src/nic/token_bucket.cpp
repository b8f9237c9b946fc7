#include "nic/token_bucket.hpp"

namespace gputn::nic {

TokenBucket::TokenBucket(TokenBucketConfig cfg)
    : burst_(cfg.burst < 1 ? 1 : cfg.burst) {
  if (cfg.ops_per_sec > 0.0) {
    double p = 1e12 / cfg.ops_per_sec;
    period_ = p < 1.0 ? 1 : static_cast<sim::Tick>(p);
  }
  tokens_ = burst_;  // a fresh bucket is full: bursts up to `burst` pass
}

void TokenBucket::settle(sim::Tick now) {
  if (tokens_ >= burst_) {
    stamp_ = now;  // full bucket does not bank extra credit
    return;
  }
  sim::Tick earned = (now - stamp_) / period_;
  if (earned >= static_cast<sim::Tick>(burst_ - tokens_)) {
    tokens_ = burst_;
    stamp_ = now;
  } else {
    tokens_ += static_cast<int>(earned);
    stamp_ += earned * period_;
  }
}

sim::Tick TokenBucket::reserve(sim::Tick now) {
  ++admitted_;
  if (!enabled()) return 0;
  settle(now);
  sim::Tick wait = 0;
  if (tokens_ == 0) {
    // The next token accrues at stamp_ + period_ (> now, or settle would
    // have credited it). Settling there credits exactly that one token.
    wait = stamp_ + period_ - now;
    settle(now + wait);
    ++stalls_;
    stalled_time_ += wait;
  }
  --tokens_;
  return wait;
}

}  // namespace gputn::nic
