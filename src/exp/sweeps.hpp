// Shared sweep plans for the paper's figures and ablations.
//
// The bench drivers (fig09/fig10/abl_*) used to hand-roll the same nested
// loops — for each grid/node-count, for each strategy, build a config, run,
// collect. These helpers emit the equivalent exp::Plan instead, so every
// driver, the micro_sweep benchmark, `gputn sweep`, and the exp tests all
// enumerate run points through one code path and inherit --jobs parallelism
// and deterministic merge for free.
//
// Point-order conventions (the drivers index results as row * width + col):
//   fig09_plan:          for each grid n, kAllStrategies order (CPU, HDN,
//                        GDS, GPU-TN).
//   fig10_plan:          for each node count, kAllStrategies order.
//   jacobi_overlap_plan: for each grid n, {no-overlap, overlap}.
//   coll_offload_plan:   for each (nodes, elements) row, {GPU-driven,
//                        NIC-offloaded allgather}.
//   fault_loss_plan:     one GPU-TN allreduce per loss rate.
//   broadcast_plan:      for each node count, {HDN, GPU-TN, NIC-chain}.
//   serve_load_plan:     for each offered load (req/s per tenant),
//                        {CPU, GPU-TN}.
//   fabric_scale_plan:   for each node count, for each topology spec,
//                        {CPU, GPU-TN}.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/plan.hpp"
#include "serve/serve.hpp"

namespace gputn::exp {

/// Figure 9: 2-D Jacobi across local grid sizes x all four strategies.
Plan fig09_plan(const std::vector<int>& grids, int iterations = 10,
                int num_wgs = 16);

/// Figure 10: ring allreduce strong scaling across node counts x all four
/// strategies. `elements` is the fp32 count (Figure 10 uses 2 Mi = 8 MB).
Plan fig10_plan(const std::vector<int>& node_counts, std::size_t elements);

/// Ablation: GPU-TN Jacobi with and without interior/halo overlap.
Plan jacobi_overlap_plan(const std::vector<int>& grids, int iterations = 10);

/// Ablation: GPU-TN allreduce, GPU-driven vs NIC-offloaded allgather, one
/// pair of points per (nodes, elements) row.
Plan coll_offload_plan(
    const std::vector<std::pair<int, std::size_t>>& rows);

/// Ablation: GPU-TN allreduce under uniform per-packet loss, one point per
/// rate (rate 0 is the exact lossless protocol).
Plan fault_loss_plan(const std::vector<double>& loss_rates, int nodes,
                     std::size_t elements, std::uint64_t seed = 1);

/// Extension: pipelined ring broadcast, all three drives per node count.
Plan broadcast_plan(const std::vector<int>& node_counts, std::size_t bytes,
                    int chunks);

/// Serving: CPU-proxy vs GPU-TN response path per offered load (open-loop
/// req/s per tenant). `base` carries the fixed knobs (tenants, mix, skew);
/// its strategy/offered_load fields are overwritten per point.
Plan serve_load_plan(const std::vector<double>& offered_loads,
                     serve::ServeConfig base = {});

/// Scale-out fabric: ring allreduce strong scaling per node count x
/// topology spec (net::make_topology strings, e.g. "star",
/// "fat-tree:k=16") x {CPU, GPU-TN}. Point ids are
/// "fabric/p<nodes>/<topology>/<strategy>". `routing` applies to every
/// point ("" = config default).
Plan fabric_scale_plan(const std::vector<int>& node_counts,
                       const std::vector<std::string>& topologies,
                       std::size_t elements,
                       const std::string& routing = "");

/// The fig09 + fig10 + ablation mini-sweep: small-parameter versions of the
/// plans above concatenated in a fixed order. This is the workload for
/// bench/micro_sweep (BENCH_sweep.json), `gputn sweep`, and the jobs=1 vs
/// jobs=N bit-identity tests.
Plan mini_sweep_plan();

/// Bench-driver helper: the value of a `--jobs N` argument in argv, or
/// `dflt` when absent (0 = hardware concurrency). Exits with a usage
/// message on a malformed value. Benches stay deterministic at any jobs
/// count, so their default is "all cores".
int jobs_from_args(int argc, char** argv, int dflt = 0);

}  // namespace gputn::exp
