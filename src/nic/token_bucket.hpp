// Token-bucket rate limiter for the NIC command pipeline.
//
// Serving workloads share a NIC between many tenants; a token bucket is
// the standard way a NIC (or its hypervisor) caps a flow's command rate
// while still absorbing short bursts. Tokens accrue at `ops_per_sec` up to
// a `burst` cap; each command consumes one token, and a command arriving
// to an empty bucket stalls until the next token accrues. All arithmetic
// is integer picoseconds, so paced runs stay bit-deterministic.
//
// Disabled (ops_per_sec == 0) the bucket is pass-through and never
// stalls, so existing workloads pay nothing and drift nothing.
//
// The bucket is passive arithmetic: reserve() takes the next token and
// returns how long its caller waits for it, so a stall is one delay event
// on the caller's side (the NIC TX engine's admission step).
#pragma once

#include <cstdint>

#include "sim/units.hpp"

namespace gputn::nic {

struct TokenBucketConfig {
  /// Sustained command admission rate. 0 = unlimited (pass-through).
  double ops_per_sec = 0.0;
  /// Bucket capacity: how many commands a burst may admit back-to-back.
  int burst = 16;
};

class TokenBucket {
 public:
  explicit TokenBucket(TokenBucketConfig cfg);

  bool enabled() const { return period_ > 0; }
  /// Inter-token interval (ps); 0 when the bucket is pass-through.
  sim::Tick period() const { return period_; }

  /// Take one token at `now`: returns how long the caller waits for it,
  /// 0 when one is in the bucket (or the bucket is disabled), otherwise
  /// the time until the next token accrues. The token is the caller's from
  /// the call on; callers take tokens one at a time, each after the last
  /// one's wait has elapsed (the NIC's serial TX engine).
  sim::Tick reserve(sim::Tick now);

  std::uint64_t admitted() const { return admitted_; }
  /// Commands that had to wait for a token.
  std::uint64_t stalls() const { return stalls_; }
  /// Total time commands spent waiting for tokens.
  sim::Tick stalled_time() const { return stalled_time_; }

 private:
  /// Credit tokens earned since `stamp_`; advances `stamp_` only by whole
  /// periods so fractional credit is never lost (integer-exact pacing).
  void settle(sim::Tick now);

  sim::Tick period_ = 0;
  int burst_ = 1;
  int tokens_ = 1;
  sim::Tick stamp_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t stalls_ = 0;
  sim::Tick stalled_time_ = 0;
};

}  // namespace gputn::nic
