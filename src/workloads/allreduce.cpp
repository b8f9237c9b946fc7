#include "workloads/allreduce.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "rt/collectives.hpp"
#include "sim/sync.hpp"

namespace gputn::workloads {

namespace {

/// Small integer inputs keep fp32 ring sums exact, so verification against
/// the sequential reduction is bit-accurate regardless of combine order.
/// A rank's inputs repeat every kInputPeriod elements.
constexpr std::size_t kInputPeriod = 31;
float initial_value(int rank, std::size_t i) {
  return static_cast<float>(
      static_cast<int>((rank * 7 + i * 13) % kInputPeriod) - 15);
}

struct NodeState {
  mem::Addr vec = 0;               // the fp32 vector being reduced
  mem::Addr rx[2] = {0, 0};        // chunk landing buffers (ping-pong)
  mem::Addr step_flag = 0;         // chunk-level arrival flag, value = step+1
  std::vector<mem::Addr> slice_flag[2];  // GPU-TN per-slice arrival flags
  rt::RingAllreducePlan plan{0, 2, 2};
};

struct Workspace {
  Workspace(const cluster::SystemConfig& sys, const AllreduceConfig& cfg)
      : cluster(sim, sys, cfg.nodes),
        config(cfg),
        states(cfg.nodes) {
    for (int r = 0; r < cfg.nodes; ++r) {
      auto& node = cluster.node(r);
      auto& st = states[r];
      st.plan = rt::RingAllreducePlan(r, cfg.nodes, cfg.elements);
      st.vec = node.memory().alloc(cfg.elements * sizeof(float));
      std::size_t stage = st.plan.max_chunk_elems() * sizeof(float);
      st.rx[0] = node.memory().alloc(stage);
      st.rx[1] = node.memory().alloc(stage);
      st.step_flag = node.rt().alloc_flag();
      for (int p = 0; p < 2; ++p) {
        for (int w = 0; w < cfg.num_wgs; ++w) {
          st.slice_flag[p].push_back(node.rt().alloc_flag());
        }
      }
      // Stage one period through initial_value, then copy it along the
      // vector.
      std::array<float, kInputPeriod> period{};
      for (std::size_t i = 0; i < kInputPeriod; ++i) {
        period[i] = initial_value(r, i);
      }
      auto v = node.memory().typed<float>(st.vec, cfg.elements);
      for (std::size_t i = 0; i < cfg.elements; i += kInputPeriod) {
        std::size_t len = std::min(kInputPeriod, cfg.elements - i);
        std::copy_n(period.begin(), len, v.subspan(i, len).begin());
      }
    }
  }

  mem::Addr chunk_addr(int rank, int chunk) const {
    return states[rank].vec +
           states[rank].plan.chunk_offset(chunk) * sizeof(float);
  }
  std::uint64_t chunk_bytes(int rank, int chunk) const {
    return states[rank].plan.chunk_elems(chunk) * sizeof(float);
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  AllreduceConfig config;
  std::vector<NodeState> states;
};

/// Functional combine: add `elems` floats at `src` into `dst`.
void combine(mem::Memory& m, mem::Addr dst, mem::Addr src, std::size_t elems) {
  auto d = m.typed<float>(dst, elems);
  auto s = std::as_const(m).typed<float>(src, elems);
  for (std::size_t i = 0; i < elems; ++i) d[i] += s[i];
}

/// GPU combine streams read+read+write coalesced.
std::uint64_t reduce_traffic(std::uint64_t bytes) { return 3 * bytes; }
/// The host additionally pays write-allocate on the destination.
std::uint64_t cpu_reduce_traffic(std::uint64_t bytes) { return 4 * bytes; }

// ---------------------------------------------------------------------------
// CPU: the libNBC schedule driven entirely by the host.
// ---------------------------------------------------------------------------
sim::Task<> cpu_rank(Workspace& w, int r, bool staging) {
  auto& node = w.cluster.node(r);
  auto& st = w.states[r];
  auto& m = node.memory();
  for (const rt::RingStep& step : st.plan.steps()) {
    const auto tag = static_cast<std::uint64_t>(step.index);
    int p = step.index % 2;
    mem::Addr land =
        step.reduce ? st.rx[p] : w.chunk_addr(r, step.recv_chunk);

    std::vector<sim::Task<>> ops;
    ops.push_back(node.rt().send(step.to, tag,
                                 w.chunk_addr(r, step.send_chunk),
                                 w.chunk_bytes(r, step.send_chunk), staging));
    ops.push_back(node.rt().recv(step.from, tag, land,
                                 w.chunk_bytes(r, step.recv_chunk), staging));
    co_await sim::all(w.sim, std::move(ops));

    if (step.reduce) {
      std::size_t elems = st.plan.chunk_elems(step.recv_chunk);
      combine(m, w.chunk_addr(r, step.recv_chunk), land, elems);
      co_await node.cpu().compute_parallel(
          static_cast<double>(elems),
          cpu_reduce_traffic(w.chunk_bytes(r, step.recv_chunk)));
    }
  }
}

/// The reduce kernel shared by HDN and GDS: combine the chunk `step`
/// receives, landed at `land`, into rank `r`'s vector. Work-group 0
/// performs the functional combine, every work-group accounts its share of
/// the traffic.
gpu::KernelDesc make_reduce_kernel(Workspace& w, int r,
                                   const rt::RingStep& step, mem::Addr land) {
  std::size_t elems = w.states[r].plan.chunk_elems(step.recv_chunk);
  mem::Addr dst = w.chunk_addr(r, step.recv_chunk);
  std::uint64_t bytes = w.chunk_bytes(r, step.recv_chunk);
  gpu::KernelDesc k;
  k.name = "reduce";
  k.num_wgs = w.config.num_wgs;
  auto* mp = &w.cluster.node(r).memory();
  k.fn = [mp, dst, land, elems, bytes](gpu::WorkGroupCtx& ctx)
      -> sim::Task<> {
    if (ctx.wg_id() == 0) {
      combine(*mp, dst, land, elems);
      ctx.mark_dirty();
    }
    co_await ctx.compute_mem(reduce_traffic(bytes) /
                             static_cast<std::uint64_t>(ctx.num_wgs()));
  };
  return k;
}

// ---------------------------------------------------------------------------
// HDN: same schedule; reductions are GPU kernels at kernel boundaries.
// ---------------------------------------------------------------------------
sim::Task<> hdn_rank(Workspace& w, int r) {
  auto& node = w.cluster.node(r);
  auto& st = w.states[r];
  for (const rt::RingStep& step : st.plan.steps()) {
    const auto tag = static_cast<std::uint64_t>(step.index);
    int p = step.index % 2;
    mem::Addr land =
        step.reduce ? st.rx[p] : w.chunk_addr(r, step.recv_chunk);

    std::vector<sim::Task<>> ops;
    ops.push_back(node.rt().send(step.to, tag,
                                 w.chunk_addr(r, step.send_chunk),
                                 w.chunk_bytes(r, step.send_chunk)));
    ops.push_back(node.rt().recv(step.from, tag, land,
                                 w.chunk_bytes(r, step.recv_chunk)));
    co_await sim::all(w.sim, std::move(ops));

    if (step.reduce) {
      co_await node.rt().launch_sync(make_reduce_kernel(w, r, step, land));
    }
  }
}

// ---------------------------------------------------------------------------
// GDS: the whole schedule pre-posted on the GPU stream.
// Per round: [put send_chunk | wait arrival | reduce kernel].
// ---------------------------------------------------------------------------
sim::Task<> gds_rank(Workspace& w, int r) {
  auto& node = w.cluster.node(r);
  auto& st = w.states[r];
  std::shared_ptr<gpu::KernelRecord> last;
  sim::Event all_posted(w.sim);

  for (const rt::RingStep& step : st.plan.steps()) {
    const auto round = static_cast<std::uint64_t>(step.index);
    int p = step.index % 2;
    auto& peer = w.states[step.to];
    // Where my chunk lands at the receiver: staging (reduce phase) or final
    // position (allgather phase). Static scheme, known at post time (§3.4).
    mem::Addr remote = step.reduce ? peer.rx[p]
                                   : w.chunk_addr(step.to, step.send_chunk);

    nic::PutDesc put;
    put.target = step.to;
    put.local_addr = w.chunk_addr(r, step.send_chunk);
    put.bytes = w.chunk_bytes(r, step.send_chunk);
    put.remote_addr = remote;
    put.remote_flag = peer.step_flag;
    put.flag_value = round + 1;
    co_await node.rt().gds_stream_put(put);
    node.rt().gds_stream_wait(st.step_flag, round + 1);

    if (step.reduce) {
      last =
          co_await node.rt().launch(make_reduce_kernel(w, r, step, st.rx[p]));
    }
  }
  // Allgather rounds end with a wait; ensure the final round's data arrived.
  co_await node.cpu().wait_value_ge(st.step_flag, st.plan.steps().size());
  if (last) co_await last->done.wait();
}

// ---------------------------------------------------------------------------
// GPU-TN: one persistent kernel; work-group-granularity triggered puts
// pipeline each chunk's slices with the reduction (§5.4.1).
// ---------------------------------------------------------------------------
sim::Task<> gputn_rank(Workspace& w, int r) {
  auto& node = w.cluster.node(r);
  auto& st = w.states[r];
  const int wgs = w.config.num_wgs;
  const auto& steps = st.plan.steps();
  const int nsteps = static_cast<int>(steps.size());
  mem::Addr trig = node.rt().trigger_addr();

  // Mixed granularity (§4.2.3): pipeline each chunk as `slices` messages,
  // coarsening (by powers of two, so slices divides num_wgs) until a slice
  // meets the minimum useful size. slices == num_wgs is pure work-group
  // granularity; slices == 1 degenerates to kernel-level triggering with
  // threshold = num_wgs.
  std::uint64_t min_chunk = st.plan.chunk_elems(0) * sizeof(float);
  int slices = wgs;
  while (slices > 1 && min_chunk / slices < w.config.min_slice_bytes) {
    slices /= 2;
  }
  const int group = wgs / slices;  // work-groups contributing per slice

  // Transfer-slice partition of a chunk.
  auto slice_of = [slices](std::size_t elems, int slice,
                           std::size_t& off, std::size_t& cnt) {
    std::size_t base = elems / slices;
    off = base * slice;
    cnt = (slice == slices - 1) ? elems - off : base;
  };
  // Compute partition: WG w reduces its share of its own transfer slice
  // (j = w / group), so a slice's arrival unblocks exactly the WGs that
  // consume it.
  auto wg_part = [slices, group, slice_of](std::size_t elems, int wg,
                                           std::size_t& off,
                                           std::size_t& cnt) {
    int j = wg / group;
    int p = wg % group;
    std::size_t soff, scnt;
    slice_of(elems, j, soff, scnt);
    std::size_t base = scnt / group;
    off = soff + base * p;
    cnt = (p == group - 1) ? scnt - base * p : base;
    (void)slices;
  };

  // Launch the persistent kernel FIRST; registration overlaps execution
  // (relaxed synchronization, §3.2/§4.1 — early triggers become orphans).
  gpu::KernelDesc kern;
  kern.name = "allreduce-persistent";
  kern.num_wgs = wgs;
  auto* ws = &w;
  int rank = r;
  const bool offload = w.config.nic_offload_allgather;
  const int first_ag = st.plan.nranks() - 1;  // first allgather step index
  kern.fn = [ws, rank, trig, nsteps, slices, group, wg_part, offload,
             first_ag](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
    auto& w2 = *ws;
    auto& st2 = w2.states[rank];
    auto& m = w2.cluster.node(rank).memory();
    const int wg = ctx.wg_id();
    const int j = wg / group;  // my transfer slice
    for (int s = 0; s < nsteps; ++s) {
      const rt::RingStep& step = st2.plan.steps()[s];
      int p = s % 2;
      // Trigger my slice's put: it fires once all `group` contributing
      // work-groups have arrived (threshold = group). With NIC offload,
      // forwarding steps beyond the first allgather hop are armed by the
      // incoming put's counting-receive event — no GPU trigger at all.
      if (!(offload && s > first_ag)) {
        co_await ctx.store_system(
            trig, static_cast<std::uint64_t>(s) * slices + j);
      }
      // Await my slice of the arriving chunk.
      co_await ctx.wait_value_ge(st2.slice_flag[p][j],
                                 static_cast<std::uint64_t>(s) + 1);
      if (step.reduce) {
        std::size_t elems = st2.plan.chunk_elems(step.recv_chunk);
        std::size_t off, cnt;
        wg_part(elems, wg, off, cnt);
        combine(m, w2.chunk_addr(rank, step.recv_chunk) + off * sizeof(float),
                st2.rx[p] + off * sizeof(float), cnt);
        ctx.mark_dirty();
        co_await ctx.compute_mem(reduce_traffic(cnt * sizeof(float)));
        co_await ctx.fence_system();
      }
    }
  };
  auto rec = co_await node.rt().launch(std::move(kern));

  // Host: build + register every triggered put. With many slices per step
  // this exceeds the 16-entry associative prototype, so allreduce runs the
  // hash-lookup table variant (see DESIGN.md).
  for (int s = 0; s < nsteps; ++s) {
    const rt::RingStep& step = steps[s];
    auto& peer = w.states[step.to];
    int p = s % 2;
    std::size_t elems = st.plan.chunk_elems(step.send_chunk);
    bool peer_reduces = step.reduce;  // same phase at every rank
    for (int j = 0; j < slices; ++j) {
      std::size_t off, cnt;
      slice_of(elems, j, off, cnt);
      nic::PutDesc put;
      put.target = step.to;
      put.local_addr =
          w.chunk_addr(r, step.send_chunk) + off * sizeof(float);
      put.bytes = cnt * sizeof(float);
      put.remote_addr =
          (peer_reduces ? peer.rx[p]
                        : w.chunk_addr(step.to, step.send_chunk)) +
          off * sizeof(float);
      put.remote_flag = peer.slice_flag[p][j];
      put.flag_value = static_cast<std::uint64_t>(s) + 1;
      // NIC-offloaded allgather: my put for a non-final forwarding step
      // also arms the receiver's next-hop put (the chunk I deliver at
      // step s is exactly what the receiver forwards at step s + 1).
      bool chain_next =
          offload && s >= first_ag && s + 1 < nsteps;
      if (chain_next) {
        put.remote_trigger_tag_plus1 =
            (static_cast<std::uint64_t>(s + 1) * slices + j) + 1;
      }
      // Forward-hop puts are armed by one receive event, not `group` GPU
      // trigger stores.
      std::uint64_t threshold =
          (offload && s > first_ag) ? 1 : static_cast<std::uint64_t>(group);
      co_await node.rt().trig_put(
          static_cast<std::uint64_t>(s) * slices + j, threshold, put);
    }
  }
  co_await rec->done.wait();
  // The final allgather arrivals land via DMA after the last kernel round
  // consumed its flags; the kernel's last waits cover them.
}

}  // namespace

AllreduceResult run_allreduce(const AllreduceConfig& cfg,
                              const cluster::SystemConfig& sys) {
  if (cfg.nodes < 2) throw std::invalid_argument("allreduce needs >= 2 nodes");
  // rt::RingAllreducePlan rejects this too, but only after the cluster is
  // built; at thousands of ranks that build costs seconds.
  if (cfg.elements < static_cast<std::size_t>(cfg.nodes)) {
    throw std::invalid_argument("fewer elements than ranks");
  }
  cluster::SystemConfig adjusted = sys;
  std::uint64_t vec_bytes = cfg.elements * sizeof(float);
  adjusted.dram_bytes = vec_bytes + 4 * (vec_bytes / cfg.nodes) + (8u << 20);
  if (cfg.strategy == Strategy::kGpuTn) {
    // 2*(N-1)*num_wgs simultaneous triggered ops exceed the associative
    // prototype's 16 entries; use the hash variant for this workload.
    adjusted.triggered.table.lookup = core::LookupKind::kHash;
  }

  Workspace w(adjusted, cfg);
  std::vector<sim::Task<>> ranks;
  for (int r = 0; r < cfg.nodes; ++r) {
    switch (cfg.strategy) {
      case Strategy::kCpu:
        ranks.push_back(cpu_rank(w, r, /*staging=*/true));
        break;
      case Strategy::kHdn:
        ranks.push_back(hdn_rank(w, r));
        break;
      case Strategy::kGds:
        ranks.push_back(gds_rank(w, r));
        break;
      case Strategy::kGpuTn:
        ranks.push_back(gputn_rank(w, r));
        break;
      case Strategy::kGhn:
      case Strategy::kGnn:
        throw std::invalid_argument(
            "allreduce: GHN/GNN are microbenchmark-only strategies");
    }
  }
  sim::Tick finished_at = run_ranks(w.cluster, cfg, std::move(ranks),
                                    "allreduce");

  AllreduceResult res;
  res.strategy = cfg.strategy;
  res.nodes = cfg.nodes;
  res.label = "allreduce";
  res.detail = std::to_string(cfg.elements) + " fp32 over " +
               std::to_string(cfg.nodes) + " ranks";
  res.elements = cfg.elements;
  res.total_time = finished_at;
  w.cluster.export_net_stats(res.net_stats, res.total_time);

  // Verify a stride of elements on every rank against the sequential sum.
  res.correct = true;
  std::size_t stride = cfg.elements > 100000 ? 997 : 1;
  for (std::size_t i = 0; i < cfg.elements; i += stride) {
    float want = 0.0f;
    for (int rk = 0; rk < cfg.nodes; ++rk) want += initial_value(rk, i);
    for (int rk = 0; rk < cfg.nodes; ++rk) {
      float got = w.cluster.node(rk).memory().load<float>(
          w.states[rk].vec + i * sizeof(float));
      double err = std::abs(static_cast<double>(got) - want);
      res.max_error = std::max(res.max_error, err);
      if (err != 0.0) res.correct = false;
    }
  }
  return res;
}

AllreduceResult run_allreduce(const AllreduceConfig& cfg) {
  return run_allreduce(cfg, cluster::SystemConfig::table2());
}

}  // namespace gputn::workloads
