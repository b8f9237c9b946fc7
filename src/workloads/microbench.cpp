#include "workloads/microbench.hpp"

#include <algorithm>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "sim/sync.hpp"

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

/// Target-side observer: polls the completion flag on the host CPU.
sim::Task<> target_poll(Rig& r, sim::Tick& completion) {
  co_await r.target.cpu().wait_value_ge(r.rflag, 1);
  completion = r.sim.now();
}

/// The kernel body shared by the GPU strategies: copy one cache line from
/// `input` to `src`.
sim::Task<> copy_kernel_body(gpu::WorkGroupCtx& ctx, mem::Addr input,
                             mem::Addr src) {
  std::uint64_t v = ctx.load_data<std::uint64_t>(input);
  ctx.store_data<std::uint64_t>(src, v);
  co_await ctx.compute(kCopyTime);
}

MicrobenchResult run_hdn(Rig& r) {
  MicrobenchResult res;
  res.strategy = Strategy::kHdn;

  sim::Tick target_done = -1;
  r.sim.spawn(
      [](Rig& rr, sim::Tick& out) -> sim::Task<> {
        // Two-sided target: post the receive, wait for the payload.
        co_await rr.target.rt().recv(0, /*tag=*/1, rr.dst, kPayloadBytes);
        rr.target.memory().store<std::uint64_t>(rr.rflag, 1);
        out = rr.sim.now();
      }(r, target_done),
      "target");

  std::shared_ptr<gpu::KernelRecord> rec;
  sim::Tick send_begin = -1, send_end = -1;
  r.sim.spawn(
      [](Rig& rr, std::shared_ptr<gpu::KernelRecord>& rec_out,
         sim::Tick& sb, sim::Tick& se) -> sim::Task<> {
        gpu::KernelDesc k;
        k.name = "ubench";
        k.num_wgs = 1;
        mem::Addr in = rr.input, out = rr.src;
        k.fn = [in, out](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          co_await copy_kernel_body(ctx, in, out);
        };
        auto rec = co_await rr.initiator.rt().launch(std::move(k));
        rec_out = rec;
        co_await rec->done.wait();  // host waits on the kernel boundary
        sb = rr.sim.now();
        co_await rr.initiator.rt().send(1, /*tag=*/1, rr.src, kPayloadBytes);
        se = rr.sim.now();
      }(r, rec, send_begin, send_end),
      "initiator");

  r.sim.run();
  res.initiator_phases = {
      {"launch", rec->launch_begin, rec->exec_begin},
      {"kernel", rec->exec_begin, rec->exec_end},
      {"teardown", rec->exec_end, rec->done_time},
      {"send", send_begin, send_end},
  };
  res.target_completion = target_done;
  res.initiator_completion = send_end;
  return res;
}

MicrobenchResult run_gds(Rig& r) {
  MicrobenchResult res;
  res.strategy = Strategy::kGds;

  sim::Tick target_done = -1;
  r.sim.spawn(target_poll(r, target_done), "target");

  std::shared_ptr<gpu::KernelRecord> rec;
  sim::Tick host_done = -1;
  r.sim.spawn(
      [](Rig& rr, std::shared_ptr<gpu::KernelRecord>& rec_out,
         sim::Tick& hd) -> sim::Task<> {
        gpu::KernelDesc k;
        k.name = "ubench";
        k.num_wgs = 1;
        mem::Addr in = rr.input, out = rr.src;
        k.fn = [in, out](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          co_await copy_kernel_body(ctx, in, out);
        };
        // Pre-post: kernel followed by the put on the same stream; the GPU
        // front-end rings the doorbell at the kernel boundary.
        auto rec = co_await rr.initiator.rt().launch(std::move(k));
        rec_out = rec;
        co_await rr.initiator.rt().gds_stream_put(rr.put_desc());
        co_await rec->done.wait();
        hd = rr.sim.now();
      }(r, rec, host_done),
      "initiator");

  r.sim.run();
  res.initiator_phases = {
      {"launch", rec->launch_begin, rec->exec_begin},
      {"kernel", rec->exec_begin, rec->exec_end},
      {"teardown", rec->exec_end, rec->done_time},
  };
  res.target_completion = target_done;
  res.initiator_completion = host_done;
  return res;
}

MicrobenchResult run_gputn(Rig& r) {
  MicrobenchResult res;
  res.strategy = Strategy::kGpuTn;

  sim::Tick target_done = -1;
  r.sim.spawn(target_poll(r, target_done), "target");

  std::shared_ptr<gpu::KernelRecord> rec;
  r.sim.spawn(
      [](Rig& rr, std::shared_ptr<gpu::KernelRecord>& rec_out) -> sim::Task<> {
        // Figure 6: register the triggered put, then launch the kernel that
        // triggers it from inside (Figure 7c with one work-group).
        co_await rr.initiator.rt().trig_put(/*tag=*/1, /*threshold=*/1,
                                            rr.put_desc());
        mem::Addr trig = rr.initiator.rt().trigger_addr();
        gpu::KernelDesc k;
        k.name = "ubench";
        k.num_wgs = 1;
        mem::Addr in = rr.input, out = rr.src;
        k.fn = [in, out, trig](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          co_await copy_kernel_body(ctx, in, out);
          co_await ctx.fence_system();
          co_await ctx.store_system(trig, /*tag=*/1);
        };
        auto rec = co_await rr.initiator.rt().launch(std::move(k));
        rec_out = rec;
        co_await rec->done.wait();
      }(r, rec),
      "initiator");

  r.sim.run();
  res.initiator_phases = {
      {"launch", rec->launch_begin, rec->exec_begin},
      {"kernel", rec->exec_begin, rec->exec_end},
      {"teardown", rec->exec_end, rec->done_time},
  };
  res.target_completion = target_done;
  res.initiator_completion = rec->done_time;
  return res;
}

// GPU Host Networking (§1, §5.1.1): the kernel writes the payload to a
// bounce buffer and raises a request flag; a dedicated CPU helper thread
// polls the flag, builds the network packet (full send-side stack on the
// critical path), and rings the NIC. The GPU never leaves the kernel, but
// a host core is burned polling and the stack cost precedes every message.
MicrobenchResult run_ghn(Rig& r) {
  MicrobenchResult res;
  res.strategy = Strategy::kGhn;

  sim::Tick target_done = -1;
  r.sim.spawn(target_poll(r, target_done), "target");

  mem::Addr bounce = r.initiator.memory().alloc(kPayloadBytes);
  mem::Addr request = r.initiator.rt().alloc_flag();
  mem::Addr helper_stop = r.initiator.rt().alloc_flag();

  // The helper thread: poll for GPU requests, service them.
  r.sim.spawn(
      [](Rig& rr, mem::Addr bounce, mem::Addr request,
         mem::Addr stop) -> sim::Task<> {
        auto& cpu = rr.initiator.cpu();
        auto& mem = rr.initiator.memory();
        for (;;) {
          while (mem.load<std::uint64_t>(request) == 0) {
            if (mem.load<std::uint64_t>(stop) != 0) co_return;
            co_await cpu.compute(cpu.config().poll_interval);
          }
          mem.store<std::uint64_t>(request, 0);
          // Critical-path packet construction (the GPU-TN design moves
          // this off the critical path).
          co_await cpu.compute(cpu.config().send_stack_cost);
          nic::PutDesc put;
          put.target = 1;
          put.local_addr = bounce;
          put.bytes = kPayloadBytes;
          put.remote_addr = rr.dst;
          put.remote_flag = rr.rflag;
          rr.initiator.nic().ring_doorbell(put);
        }
      }(r, bounce, request, helper_stop),
      "helper-thread");

  std::shared_ptr<gpu::KernelRecord> rec;
  r.sim.spawn(
      [](Rig& rr, std::shared_ptr<gpu::KernelRecord>& rec_out,
         mem::Addr bounce, mem::Addr request, mem::Addr stop) -> sim::Task<> {
        gpu::KernelDesc k;
        k.name = "ubench";
        k.num_wgs = 1;
        mem::Addr in = rr.input;
        k.fn = [in, bounce, request](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          // Copy the cache line into the bounce buffer, then hand off.
          co_await copy_kernel_body(ctx, in, bounce);
          co_await ctx.fence_system();
          co_await ctx.store_system(request, 1);
        };
        auto rec = co_await rr.initiator.rt().launch(std::move(k));
        rec_out = rec;
        co_await rec->done.wait();
        // Tear the helper down once the message is out (bench hygiene).
        rr.initiator.memory().store<std::uint64_t>(stop, 1);
      }(r, rec, bounce, request, helper_stop),
      "initiator");

  r.sim.run();
  res.initiator_phases = {
      {"launch", rec->launch_begin, rec->exec_begin},
      {"kernel", rec->exec_begin, rec->exec_end},
      {"teardown", rec->exec_end, rec->done_time},
  };
  res.target_completion = target_done;
  res.initiator_completion = rec->done_time;
  return res;
}

// GPU Native Networking (§1, §5.1.1): the kernel itself builds the network
// command — serial, scalar, divergence-prone work a GPU is bad at — and
// writes it to the NIC command queue with a series of uncached MMIO
// stores. No CPU anywhere, but the in-kernel critical path is long.
MicrobenchResult run_gnn(Rig& r) {
  MicrobenchResult res;
  res.strategy = Strategy::kGnn;

  sim::Tick target_done = -1;
  r.sim.spawn(target_poll(r, target_done), "target");

  // In-kernel packet construction cost: serial pointer chasing through QP
  // state held in global memory; a single lane does the work while the
  // wavefront idles (cf. Oden et al. [31], GPUrdma [8]).
  constexpr sim::Tick kGpuPacketBuild = sim::ns(700);
  constexpr int kCommandWords = 5;  // WQE descriptor written over MMIO

  std::shared_ptr<gpu::KernelRecord> rec;
  nic::PutDesc put = r.put_desc();
  r.sim.spawn(
      [](Rig& rr, std::shared_ptr<gpu::KernelRecord>& rec_out,
         nic::PutDesc put) -> sim::Task<> {
        gpu::KernelDesc k;
        k.name = "ubench";
        k.num_wgs = 1;
        mem::Addr in = rr.input, out = rr.src;
        auto* nic = &rr.initiator.nic();
        k.fn = [in, out, put, nic](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          co_await copy_kernel_body(ctx, in, out);
          co_await ctx.fence_system();
          co_await ctx.compute(kGpuPacketBuild);  // build the WQE in-kernel
          for (int wq = 0; wq < kCommandWords; ++wq) {
            co_await ctx.compute(ctx.gpu().config().store_system_latency);
          }
          // Ring the doorbell with the completed command.
          nic->ring_doorbell(put);
        };
        auto rec = co_await rr.initiator.rt().launch(std::move(k));
        rec_out = rec;
        co_await rec->done.wait();
      }(r, rec, put),
      "initiator");

  r.sim.run();
  res.initiator_phases = {
      {"launch", rec->launch_begin, rec->exec_begin},
      {"kernel", rec->exec_begin, rec->exec_end},
      {"teardown", rec->exec_end, rec->done_time},
  };
  res.target_completion = target_done;
  res.initiator_completion = rec->done_time;
  return res;
}

MicrobenchResult run_cpu(Rig& r) {
  MicrobenchResult res;
  res.strategy = Strategy::kCpu;

  sim::Tick target_done = -1;
  r.sim.spawn(
      [](Rig& rr, sim::Tick& out) -> sim::Task<> {
        co_await rr.target.rt().recv(0, 1, rr.dst, kPayloadBytes,
                                     /*host_staging=*/true);
        rr.target.memory().store<std::uint64_t>(rr.rflag, 1);
        out = rr.sim.now();
      }(r, target_done),
      "target");

  sim::Tick copy_begin = -1, send_begin = -1, send_end = -1;
  r.sim.spawn(
      [](Rig& rr, sim::Tick& cb, sim::Tick& sb, sim::Tick& se) -> sim::Task<> {
        cb = rr.sim.now();
        std::uint64_t v = rr.initiator.memory().load<std::uint64_t>(rr.input);
        rr.initiator.memory().store<std::uint64_t>(rr.src, v);
        co_await rr.initiator.cpu().compute(sim::ns(40));  // 64B copy
        sb = rr.sim.now();
        co_await rr.initiator.rt().send(1, 1, rr.src, kPayloadBytes,
                                        /*host_staging=*/true);
        se = rr.sim.now();
      }(r, copy_begin, send_begin, send_end),
      "initiator");

  r.sim.run();
  res.initiator_phases = {
      {"copy", copy_begin, send_begin},
      {"send", send_begin, send_end},
  };
  res.target_completion = target_done;
  res.initiator_completion = send_end;
  return res;
}

}  // namespace

MicrobenchResult run_microbench(const MicrobenchConfig& cfg,
                                const cluster::SystemConfig& config) {
  Rig r(config);
  attach_observers(r.cluster, cfg);
  MicrobenchResult res;
  switch (cfg.strategy) {
    case Strategy::kCpu:
      res = run_cpu(r);
      break;
    case Strategy::kHdn:
      res = run_hdn(r);
      break;
    case Strategy::kGds:
      res = run_gds(r);
      break;
    case Strategy::kGpuTn:
      res = run_gputn(r);
      break;
    case Strategy::kGhn:
      res = run_ghn(r);
      break;
    case Strategy::kGnn:
      res = run_gnn(r);
      break;
  }
  r.cluster.flush_flight();
  res.correct = r.target.memory().load<std::uint64_t>(r.dst) == kMagic;
  if (res.target_completion <= 0) {
    throw std::runtime_error("microbench: target never observed the payload");
  }
  res.nodes = 2;
  res.label = "microbench";
  res.detail = "one cache line, initiator -> target";
  res.total_time = res.target_completion;
  r.cluster.export_net_stats(res.net_stats, res.total_time);
  return res;
}

MicrobenchResult run_microbench(const MicrobenchConfig& cfg) {
  return run_microbench(cfg, cluster::SystemConfig::table2());
}

MicrobenchResult run_microbench(Strategy strategy,
                                const cluster::SystemConfig& config,
                                sim::TraceRecorder* trace) {
  MicrobenchConfig cfg;
  cfg.strategy = strategy;
  cfg.trace = trace;
  return run_microbench(cfg, config);
}

MicrobenchResult run_microbench(Strategy strategy) {
  return run_microbench(strategy, cluster::SystemConfig::table2());
}

}  // namespace gputn::workloads
