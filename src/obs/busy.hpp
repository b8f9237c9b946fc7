// Utilization ledger: busy-time and queue-depth accounting for one named
// simulated resource (link wire, NIC command pipeline, DMA engine, CPU
// cores, GPU compute units).
//
// A BusyTracker is pure bookkeeping: it never touches the simulator, never
// schedules events, and does all its accounting in integer picoseconds —
// so instrumented components behave bit-identically to uninstrumented ones
// (the always-on, zero-drift property the observability tests enforce).
// Busy time is a time integral in unit-picoseconds: a resource of capacity
// C that keeps k units busy for t picoseconds accumulates k*t, so the busy
// fraction over a window W is busy_ps / (C * W). Queue depth is accounted
// the same way (depth-picoseconds), giving an exact time-weighted mean
// depth q_time_ps / W; the depth observed at each enqueue instant also
// feeds a pow2 histogram for queue p99s.
#pragma once

#include <cstdint>
#include <string>

#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace gputn::obs {

class BusyTracker {
 public:
  /// `capacity` is the number of units that can be busy at once (1 for a
  /// serialized pipeline, cu_count * wgs_per_cu for a GPU, ...).
  explicit BusyTracker(int capacity = 1)
      : capacity_(capacity > 0 ? capacity : 1) {}

  // -- service occupancy ---------------------------------------------------
  /// One unit goes busy at `now` (counts one op).
  void acquire(sim::Tick now) {
    settle_busy(now);
    ++in_use_;
    if (in_use_ > in_use_max_) in_use_max_ = in_use_;
    ++ops_;
  }
  /// One unit goes idle at `now`.
  void release(sim::Tick now) {
    settle_busy(now);
    if (in_use_ > 0) --in_use_;
  }

  // -- feeding queue -------------------------------------------------------
  /// Work arrived in the resource's input queue at `now`.
  void enqueue(sim::Tick now) {
    settle_queue(now);
    ++queue_;
    if (queue_ > queue_max_) queue_max_ = queue_;
    qdepth_.add(static_cast<std::uint64_t>(queue_));
  }
  /// Work left the queue (entered service) at `now`.
  void dequeue(sim::Tick now) {
    settle_queue(now);
    if (queue_ > 0) --queue_;
  }

  void add_bytes(std::uint64_t n) { bytes_ += n; }
  /// Count `n` more ops without a transition: a unit held across n
  /// back-to-back ops, charged in one go (mem::SpinWait's polls).
  void add_ops(std::uint64_t n) { ops_ += n; }

  int capacity() const { return capacity_; }
  int in_use() const { return in_use_; }
  int in_use_max() const { return in_use_max_; }
  int queue_depth() const { return queue_; }
  int queue_max() const { return queue_max_; }
  std::uint64_t ops() const { return ops_; }
  std::uint64_t bytes() const { return bytes_; }
  /// Busy integral in unit-picoseconds, settled up to `now` (>= the last
  /// acquire/release instant).
  std::uint64_t busy_ps(sim::Tick now) const {
    return busy_integral_ +
           static_cast<std::uint64_t>(in_use_) *
               static_cast<std::uint64_t>(now - last_busy_change_);
  }
  /// Queue-depth integral in depth-picoseconds, settled up to `now`.
  std::uint64_t queue_time_ps(sim::Tick now) const {
    return queue_integral_ +
           static_cast<std::uint64_t>(queue_) *
               static_cast<std::uint64_t>(now - last_queue_change_);
  }
  /// Enqueue-instant depth distribution (for queue p99s).
  const sim::Histogram& queue_depths() const { return qdepth_; }

  /// Publish the ledger into `reg` as integer counters under `prefix`:
  /// .busy_ps, .capacity, .ops, plus .bytes when any were recorded and
  /// .q.max / .q.time_ps / a .qdepth histogram when the queue was ever
  /// used. `now` must be at or after the last recorded transition.
  void export_into(sim::StatRegistry& reg, const std::string& prefix,
                   sim::Tick now) const;

 private:
  void settle_busy(sim::Tick now) {
    busy_integral_ += static_cast<std::uint64_t>(in_use_) *
                      static_cast<std::uint64_t>(now - last_busy_change_);
    last_busy_change_ = now;
  }
  void settle_queue(sim::Tick now) {
    queue_integral_ += static_cast<std::uint64_t>(queue_) *
                       static_cast<std::uint64_t>(now - last_queue_change_);
    last_queue_change_ = now;
  }

  int capacity_;
  int in_use_ = 0;
  int in_use_max_ = 0;
  int queue_ = 0;
  int queue_max_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t busy_integral_ = 0;   // unit-picoseconds
  std::uint64_t queue_integral_ = 0;  // depth-picoseconds
  sim::Tick last_busy_change_ = 0;
  sim::Tick last_queue_change_ = 0;
  sim::Histogram qdepth_;
};

}  // namespace gputn::obs
