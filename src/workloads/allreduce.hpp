// MPI Allreduce over a chunked ring (§5.4.1, Figure 10).
//
// An 8 MB single-precision sum-allreduce. Every strategy interprets the
// same libNBC-style schedule, rt::RingAllreducePlan::steps()
// (rt/collectives.hpp), one ring step at a time:
//
//   CPU    — host reduce + two-sided send/recv with eager staging copies.
//   HDN    — per-step reduce kernel at kernel boundaries; host send/recv
//            (GPUDirect zero copy) between kernels.
//   GDS    — the whole schedule pre-posted on the GPU stream: per step
//            [wait chunk | reduce kernel | put chunk].
//   GPU-TN — one persistent kernel performs the entire collective: each
//            work-group reduces its slice of the arriving chunk and
//            triggers the slice's put, pipelining compute with transfer
//            ("our implementation triggers the network operation at the
//            granularity of a work-group").
//
// Real fp32 data flows end to end; each rank's result is verified against
// the sequential sum of all input vectors.
#pragma once

#include "cluster/config.hpp"
#include "workloads/options.hpp"
#include "workloads/strategy.hpp"

namespace gputn::workloads {

/// Strategy/nodes/trace come from RunOptions (default 8 nodes, Figure 10).
struct AllreduceConfig : RunOptions {
  AllreduceConfig() { nodes = 8; }
  std::size_t elements = 2 * 1024 * 1024;  ///< fp32 count (8 MB, Figure 10)
  int num_wgs = 16;  ///< work-groups per reduce step
  /// GPU-TN pipelines each chunk as up to `num_wgs` slice messages, but a
  /// slice smaller than this is not worth its registration + per-message
  /// overhead; the implementation then coarsens toward kernel-level
  /// triggering (mixed granularity, §4.2.3).
  std::uint64_t min_slice_bytes = 8192;
  /// GPU-TN only: run the allgather phase as a NIC-offloaded trigger chain
  /// (counting receive events arm each forward hop, §6/Underwood et al.) —
  /// the GPU neither polls nor triggers in pure-forwarding steps.
  bool nic_offload_allgather = false;
};

struct AllreduceResult : ResultBase {
  std::size_t elements = 0;
  /// Max |error| vs. the sequential reduction across sampled elements.
  double max_error = 0.0;
};

AllreduceResult run_allreduce(const AllreduceConfig& cfg,
                              const cluster::SystemConfig& sys);
AllreduceResult run_allreduce(const AllreduceConfig& cfg);

}  // namespace gputn::workloads
