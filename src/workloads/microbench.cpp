#include "workloads/microbench.hpp"

#include <functional>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"

namespace gputn::workloads {

namespace {

constexpr std::uint64_t kPayloadBytes = 64;  // one cache line (§5.2)
constexpr std::uint64_t kMagic = 0x5ca1ab1e;
/// In-kernel time to vector-copy one cache line (loads + stores through the
/// GPU cache hierarchy); common to every GPU strategy.
constexpr sim::Tick kCopyTime = sim::ns(380);

struct Rig {
  explicit Rig(const cluster::SystemConfig& cfg)
      : cluster(sim, cfg, 2),
        initiator(cluster.node(0)),
        target(cluster.node(1)) {
    src = initiator.memory().alloc(kPayloadBytes);
    input = initiator.memory().alloc(kPayloadBytes);
    dst = target.memory().alloc(kPayloadBytes);
    rflag = target.rt().alloc_flag();
    initiator.memory().store<std::uint64_t>(input, kMagic);
  }

  nic::PutDesc put_desc() {
    nic::PutDesc p;
    p.target = 1;
    p.local_addr = src;
    p.bytes = kPayloadBytes;
    p.remote_addr = dst;
    p.remote_flag = rflag;
    return p;
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  cluster::Node& initiator;
  cluster::Node& target;
  mem::Addr src = 0;    // kernel's output buffer == send buffer
  mem::Addr input = 0;  // kernel's input cache line
  mem::Addr dst = 0;
  mem::Addr rflag = 0;
};

/// GHN's initiator-side words: the kernel's bounce buffer, the request
/// flag it raises, and the flag that stops the helper thread.
struct Ghn {
  mem::Addr bounce = 0;
  mem::Addr request = 0;
  mem::Addr stop = 0;
};

/// CPU and HDN send two-sided; the other strategies put one-sided.
bool two_sided(Strategy s) {
  return s == Strategy::kCpu || s == Strategy::kHdn;
}

/// What a work-group runs once its cache line is copied: the strategy's
/// hand-off to the network. Empty for HDN and GDS, which send at the
/// kernel boundary.
using Handoff = std::function<sim::Task<>(gpu::WorkGroupCtx&)>;

sim::Task<> ubench_body(gpu::WorkGroupCtx& ctx, mem::Addr in, mem::Addr out,
                        Handoff handoff) {
  std::uint64_t v = ctx.load_data<std::uint64_t>(in);
  ctx.store_data<std::uint64_t>(out, v);
  co_await ctx.compute(kCopyTime);
  if (handoff) co_await handoff(ctx);
}

/// The kernel every GPU strategy launches: one work-group copies the cache
/// line at `in` to `out`, then runs `handoff`.
gpu::KernelDesc ubench(mem::Addr in, mem::Addr out, Handoff handoff = {}) {
  gpu::KernelDesc k;
  k.name = "ubench";
  k.num_wgs = 1;
  k.fn = [in, out, handoff = std::move(handoff)](gpu::WorkGroupCtx& ctx) {
    return ubench_body(ctx, in, out, handoff);
  };
  return k;
}

/// GPU-TN's and GHN's hand-off: fence, then store 1 at system scope to
/// `addr` (the NIC's trigger address with tag 1, or the helper's request
/// flag).
sim::Task<> signal(gpu::WorkGroupCtx& ctx, mem::Addr addr) {
  co_await ctx.fence_system();
  co_await ctx.store_system(addr, 1);
}

// GPU Native Networking (§1, §5.1.1): the kernel itself builds the network
// command — serial, scalar, divergence-prone work a GPU is bad at — and
// writes it to the NIC command queue with a series of uncached MMIO
// stores. No CPU anywhere, but the in-kernel critical path is long.
sim::Task<> build_and_ring(gpu::WorkGroupCtx& ctx, nic::Nic* nic,
                           nic::PutDesc put) {
  // In-kernel packet construction cost: serial pointer chasing through QP
  // state held in global memory; a single lane does the work while the
  // wavefront idles (cf. Oden et al. [31], GPUrdma [8]).
  constexpr sim::Tick kGpuPacketBuild = sim::ns(700);
  constexpr int kCommandWords = 5;  // WQE descriptor written over MMIO
  co_await ctx.fence_system();
  co_await ctx.compute(kGpuPacketBuild);  // build the WQE in-kernel
  for (int wq = 0; wq < kCommandWords; ++wq) {
    co_await ctx.compute(ctx.gpu().config().store_system_latency);
  }
  nic->ring_doorbell(put);  // the completed command
}

gpu::KernelDesc kernel_for(Rig& r, Strategy s, const Ghn& ghn) {
  switch (s) {
    case Strategy::kGpuTn: {
      // Figure 7c with one work-group: trigger the registered put.
      mem::Addr trig = r.initiator.rt().trigger_addr();
      return ubench(r.input, r.src, [trig](gpu::WorkGroupCtx& ctx) {
        return signal(ctx, trig);
      });
    }
    case Strategy::kGhn: {
      // Copy into the bounce buffer, then ask the helper to send it.
      mem::Addr request = ghn.request;
      return ubench(r.input, ghn.bounce, [request](gpu::WorkGroupCtx& ctx) {
        return signal(ctx, request);
      });
    }
    case Strategy::kGnn:
      return ubench(r.input, r.src,
                    [nic = &r.initiator.nic(),
                     put = r.put_desc()](gpu::WorkGroupCtx& ctx) {
                      return build_and_ring(ctx, nic, put);
                    });
    default:
      return ubench(r.input, r.src);
  }
}

// GPU Host Networking (§1, §5.1.1): the kernel writes the payload to a
// bounce buffer and raises a request flag; a dedicated CPU helper thread
// polls the flag, builds the network packet (full send-side stack on the
// critical path), and rings the NIC. The GPU never leaves the kernel, but
// a host core is burned polling and the stack cost precedes every message.
sim::Task<> ghn_helper(Rig& r, Ghn ghn) {
  auto& cpu = r.initiator.cpu();
  auto& mem = r.initiator.memory();
  for (;;) {
    while (mem.load<std::uint64_t>(ghn.request) == 0) {
      if (mem.load<std::uint64_t>(ghn.stop) != 0) co_return;
      co_await cpu.compute(cpu.config().poll_interval);
    }
    mem.store<std::uint64_t>(ghn.request, 0);
    // Critical-path packet construction (the GPU-TN design moves this off
    // the critical path).
    co_await cpu.compute(cpu.config().send_stack_cost);
    nic::PutDesc put = r.put_desc();
    put.local_addr = ghn.bounce;
    r.initiator.nic().ring_doorbell(put);
  }
}

/// The target: a two-sided receive (host-staged for CPU), or a host poll
/// on the completion flag a put raises. Records when it saw the payload.
sim::Task<> target_side(Rig& r, Strategy s, MicrobenchResult& res) {
  if (two_sided(s)) {
    co_await r.target.rt().recv(0, /*tag=*/1, r.dst, kPayloadBytes,
                                /*host_staging=*/s == Strategy::kCpu);
    r.target.memory().store<std::uint64_t>(r.rflag, 1);
  } else {
    co_await r.target.cpu().wait_value_ge(r.rflag, 1);
  }
  res.target_completion = r.sim.now();
}

/// The initiator. CPU copies the line on the host; a GPU strategy launches
/// the ubench kernel and waits for its boundary. GPU-TN registers its
/// triggered put before the launch (Figure 6), GDS queues its put behind
/// the kernel on the stream, and GHN stops its helper once the message is
/// out. CPU and HDN then send two-sided.
sim::Task<> initiator_side(Rig& r, Strategy s, const Ghn& ghn,
                           MicrobenchResult& res) {
  auto& rt = r.initiator.rt();
  if (s == Strategy::kCpu) {
    sim::Tick copy_begin = r.sim.now();
    std::uint64_t v = r.initiator.memory().load<std::uint64_t>(r.input);
    r.initiator.memory().store<std::uint64_t>(r.src, v);
    co_await r.initiator.cpu().compute(sim::ns(40));  // 64B copy
    res.initiator_phases.push_back({"copy", copy_begin, r.sim.now()});
  } else {
    if (s == Strategy::kGpuTn) {
      co_await rt.trig_put(/*tag=*/1, /*threshold=*/1, r.put_desc());
    }
    auto rec = co_await rt.launch(kernel_for(r, s, ghn));
    if (s == Strategy::kGds) co_await rt.gds_stream_put(r.put_desc());
    co_await rec->done.wait();
    res.initiator_phases = {
        {"launch", rec->launch_begin, rec->exec_begin},
        {"kernel", rec->exec_begin, rec->exec_end},
        {"teardown", rec->exec_end, rec->done_time},
    };
    if (s == Strategy::kGhn) {
      r.initiator.memory().store<std::uint64_t>(ghn.stop, 1);
    }
  }
  if (two_sided(s)) {
    sim::Tick send_begin = r.sim.now();
    co_await rt.send(1, /*tag=*/1, r.src, kPayloadBytes,
                     /*host_staging=*/s == Strategy::kCpu);
    res.initiator_phases.push_back({"send", send_begin, r.sim.now()});
  }
  res.initiator_completion = r.sim.now();
}

}  // namespace

MicrobenchResult run_microbench(const MicrobenchConfig& cfg,
                                const cluster::SystemConfig& config) {
  Rig r(config);
  MicrobenchResult res;
  res.strategy = cfg.strategy;
  Ghn ghn;
  if (cfg.strategy == Strategy::kGhn) {
    ghn.bounce = r.initiator.memory().alloc(kPayloadBytes);
    ghn.request = r.initiator.rt().alloc_flag();
    ghn.stop = r.initiator.rt().alloc_flag();
  }
  std::vector<sim::Task<>> sides;
  sides.push_back(target_side(r, cfg.strategy, res));
  if (cfg.strategy == Strategy::kGhn) sides.push_back(ghn_helper(r, ghn));
  sides.push_back(initiator_side(r, cfg.strategy, ghn, res));
  run_ranks(r.cluster, cfg, std::move(sides), "microbench");

  res.correct = r.target.memory().load<std::uint64_t>(r.dst) == kMagic;
  res.nodes = 2;
  res.label = "microbench";
  res.detail = "one cache line, initiator -> target";
  res.total_time = res.target_completion;
  r.cluster.export_net_stats(res.net_stats, res.total_time);
  return res;
}

MicrobenchResult run_microbench(Strategy strategy,
                                const cluster::SystemConfig& config) {
  MicrobenchConfig cfg;
  cfg.strategy = strategy;
  return run_microbench(cfg, config);
}

MicrobenchResult run_microbench(Strategy strategy) {
  return run_microbench(strategy, cluster::SystemConfig::table2());
}

}  // namespace gputn::workloads
