// Ablation (§3.2): relaxed synchronization.
//
// With strict synchronization the CPU must register every triggered op
// before launching the kernel; with relaxed synchronization registration
// overlaps the launch + execution and early GPU triggers park as orphan
// counters on the NIC. The benefit grows with the number of pre-registered
// operations (host post cost is serial).
#include <cstdio>

#include "cluster/cluster.hpp"
#include "sim/sync.hpp"

using namespace gputn;

namespace {

/// Runs that printed a failure marker; main exits 1 if any did.
int failures = 0;

double run_once(int ops, bool relaxed) {
  sim::Simulator sim;
  cluster::SystemConfig cfg = cluster::SystemConfig::table2();
  cfg.dram_bytes = 8u << 20;
  cfg.triggered.table.lookup = core::LookupKind::kHash;
  cluster::Cluster cl(sim, cfg, 2);
  auto& a = cl.node(0);
  auto& b = cl.node(1);

  mem::Addr src = a.memory().alloc(64 * ops);
  mem::Addr dst = b.memory().alloc(64 * ops);
  std::vector<mem::Addr> flags;
  for (int i = 0; i < ops; ++i) flags.push_back(b.rt().alloc_flag());

  sim.spawn(
      [](cluster::Node& n, int ops, bool relaxed, mem::Addr src, mem::Addr dst,
         std::vector<mem::Addr> flags) -> sim::Task<> {
        auto register_all = [&]() -> sim::Task<> {
          for (int i = 0; i < ops; ++i) {
            nic::PutDesc p;
            p.target = 1;
            p.local_addr = src + 64 * i;
            p.bytes = 64;
            p.remote_addr = dst + 64 * i;
            p.remote_flag = flags[i];
            co_await n.rt().trig_put(i, 1, p);
          }
        };
        mem::Addr trig = n.rt().trigger_addr();
        gpu::KernelDesc k;
        k.num_wgs = 1;
        k.fn = [trig, ops](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          co_await ctx.compute(sim::ns(200));
          co_await ctx.fence_system();
          for (int i = 0; i < ops; ++i) co_await ctx.store_system(trig, i);
        };
        if (relaxed) {
          // Launch first; post while the kernel runs (§4.1: "steps 2 and 4
          // do not need to occur in the order presented").
          auto rec = co_await n.rt().launch(std::move(k));
          co_await register_all();
          co_await rec->done.wait();
        } else {
          co_await register_all();
          co_await n.rt().launch_sync(std::move(k));
        }
      }(a, ops, relaxed, src, dst, flags),
      "host");
  sim.run();

  // Completion = all target flags set.
  for (auto f : flags) {
    if (b.memory().load<std::uint64_t>(f) != 1) {
      std::printf("  [missing put!]\n");
      ++failures;
    }
  }
  return sim::to_us(sim.now());
}

}  // namespace

int main() {
  std::printf("Ablation: relaxed synchronization (§3.2)\n");
  std::printf("time until all triggered puts complete (us)\n\n");
  std::printf("%8s %10s %10s %10s\n", "ops", "strict", "relaxed", "saving");
  for (int ops : {1, 2, 4, 8, 16, 32, 64}) {
    double strict = run_once(ops, false);
    double relaxed = run_once(ops, true);
    std::printf("%8d %10.2f %10.2f %9.1f%%\n", ops, strict, relaxed,
                100.0 * (1.0 - relaxed / strict));
  }
  std::printf(
      "\nRelaxed synchronization hides the serial host posting cost behind\n"
      "the kernel launch; early GPU triggers allocate orphan counters and\n"
      "fire on late registration — no software synchronization needed.\n");
  return failures == 0 ? 0 : 1;
}
