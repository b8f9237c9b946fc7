// libNBC-style non-blocking collective schedules (§5.4.1).
//
// "When a collective application is called, libNBC creates a schedule of
// subtasks that completely define all operations and dependencies" — we
// reproduce that structure: RingAllreducePlan::steps() is the schedule, an
// ordered list of ring steps; each step's send and receive are independent,
// and a step starts when the previous step's ops complete. All four
// strategy executors (workloads/allreduce.cpp) interpret the same steps,
// with CPU send/recv, kernel-boundary messaging, GDS streams, or GPU-TN
// triggered operations — which is exactly why "schedule creation in libNBC
// maps perfectly to the triggered operation semantics".
#pragma once

#include <cstdint>
#include <vector>

namespace gputn::rt {

/// One step of a chunked ring allreduce. The first (nranks-1) steps are the
/// reduce-scatter phase (arriving data is combined), the remaining
/// (nranks-1) steps are the allgather phase (arriving data is final).
struct RingStep {
  int index = 0;       ///< 0 .. 2*(nranks-1)-1
  bool reduce = false; ///< reduce-scatter phase?
  int send_chunk = 0;  ///< chunk this rank transmits
  int recv_chunk = 0;  ///< chunk this rank receives (and maybe reduces)
  int to = 0;          ///< right neighbour
  int from = 0;        ///< left neighbour
};

/// Ring allreduce plan for one rank: NCCL-style chunked ring with
/// reduce-scatter + allgather; total bytes on the wire per rank is
/// 2*(N-1)/N * vector size.
class RingAllreducePlan {
 public:
  RingAllreducePlan(int rank, int nranks, std::size_t elements);

  int rank() const { return rank_; }
  int nranks() const { return nranks_; }
  std::size_t elements() const { return elements_; }
  const std::vector<RingStep>& steps() const { return steps_; }
  int num_steps() const { return static_cast<int>(steps_.size()); }

  /// Element count / offset of chunk `c` (last chunk absorbs the remainder).
  std::size_t chunk_elems(int c) const;
  std::size_t chunk_offset(int c) const;
  /// Largest chunk (staging buffer sizing).
  std::size_t max_chunk_elems() const;

 private:
  int rank_;
  int nranks_;
  std::size_t elements_;
  std::size_t base_chunk_;
  std::vector<RingStep> steps_;
};

}  // namespace gputn::rt
