// Ablation (§3.4): static vs dynamic GPU-TN.
//
// The paper's base design fixes all networking metadata on the CPU
// ("static networking scheme ... offers the best performance at the cost
// of some flexibility") and leaves dynamic target selection as future
// work. We implement it: the GPU encodes the target node into the trigger
// store; the NIC patches the pre-staged put. This harness measures the
// price of that flexibility on a data-dependent scatter the static scheme
// can only handle if the host predicts the pattern.
#include <cstdio>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/sync.hpp"

using namespace gputn;

namespace {

/// Runs that printed a failure marker; main exits 1 if any did.
int failures = 0;

constexpr int kMessages = 32;
constexpr std::uint64_t kBytes = 512;

/// The data-dependent pattern (known to the bench, unknown to the "host"
/// in the dynamic variant): message i goes to node (i * 7) % peers + 1.
int pattern(int i, int peers) { return (i * 7) % peers + 1; }

double run_scatter(bool dynamic, int nodes) {
  sim::Simulator sim;
  cluster::SystemConfig cfg = cluster::SystemConfig::table2();
  cfg.dram_bytes = 4u << 20;
  cfg.triggered.table.lookup = core::LookupKind::kHash;
  cluster::Cluster cl(sim, cfg, nodes);
  auto& origin = cl.node(0);
  int peers = nodes - 1;

  mem::Addr src = origin.memory().alloc(kBytes * kMessages);
  // Symmetric landing buffers (same offsets on every node, PGAS-style).
  std::vector<mem::Addr> dst(nodes), flag(nodes);
  for (int i = 1; i < nodes; ++i) {
    dst[i] = cl.node(i).memory().alloc(kBytes * kMessages);
    flag[i] = cl.node(i).rt().alloc_flag();
  }

  sim.spawn(
      [](cluster::Cluster& cl2, cluster::Node& n, bool dynamic, int peers,
         mem::Addr src, std::vector<mem::Addr> dst,
         std::vector<mem::Addr> flag) -> sim::Task<> {
        for (int i = 0; i < kMessages; ++i) {
          int target = pattern(i, peers);
          nic::PutDesc put;
          put.local_addr = src + i * kBytes;
          put.bytes = kBytes;
          put.remote_addr = dst[target] + i * kBytes;
          put.remote_flag = flag[target];
          put.flag_value = static_cast<std::uint64_t>(i) + 1;
          if (dynamic) {
            // Host does NOT know the pattern: it stages target-less puts.
            co_await n.cpu().compute(n.cpu().config().post_cost);
            n.triggered().register_dynamic_put(i, put);
          } else {
            // Host predicted the pattern exactly (best case for static).
            put.target = target;
            co_await n.rt().trig_put(i, 1, put);
          }
        }
        mem::Addr trig = dynamic ? n.triggered().dynamic_trigger_address()
                                 : n.rt().trigger_addr();
        gpu::KernelDesc k;
        k.num_wgs = 1;
        k.fn = [trig, dynamic, peers](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          co_await ctx.fence_system();
          for (int i = 0; i < kMessages; ++i) {
            if (dynamic) {
              // Compute the data-dependent target in-kernel: a divergent
              // scalar decision per message.
              co_await ctx.diverged(2, sim::ns(8));
              co_await ctx.store_system(
                  trig, core::encode_dynamic_trigger(i, pattern(i, peers)));
            } else {
              co_await ctx.store_system(trig, i);
            }
          }
        };
        co_await n.rt().launch_sync(std::move(k));
        (void)cl2;
      }(cl, origin, dynamic, peers, src, dst, flag),
      "origin");
  sim.run();

  // Verify every peer got its messages.
  for (int i = 0; i < kMessages; ++i) {
    int t = pattern(i, peers);
    if (cl.node(t).memory().load<std::uint64_t>(flag[t]) == 0) {
      std::printf("  [message %d never arrived!]\n", i);
      ++failures;
    }
  }
  return sim::to_us(sim.now());
}

}  // namespace

int main() {
  std::printf("Ablation: static vs dynamic GPU-TN (§3.4), %d-message\n"
              "data-dependent scatter\n\n",
              kMessages);
  std::printf("%8s %14s %14s %12s\n", "nodes", "static (us)", "dynamic (us)",
              "overhead");
  for (int nodes : {3, 5, 9, 17}) {
    double s = run_scatter(false, nodes);
    double d = run_scatter(true, nodes);
    std::printf("%8d %14.2f %14.2f %11.1f%%\n", nodes, s, d,
                100.0 * (d / s - 1.0));
  }
  std::printf(
      "\nThe static scheme is benchmarked in its best case (the host\n"
      "predicted the pattern perfectly); dynamic pays in-kernel target\n"
      "computation (divergence) + NIC decode, a few percent here — the\n"
      "flexibility/performance continuum of §3.4. When the host CANNOT\n"
      "predict the pattern, only the dynamic scheme works at all.\n");
  return failures == 0 ? 0 : 1;
}
