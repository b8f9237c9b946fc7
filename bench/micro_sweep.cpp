// Sweep-throughput benchmark: the parallel experiment engine against
// serial execution on the paper's evaluation mini-sweep.
//
// The workload is exp::mini_sweep_plan() — small-parameter fig09 + fig10 +
// ablation points, the same plan the exp tests assert bit-identity on. Each
// point is an independent deterministic simulation, so jobs=N is pure
// replica throughput: the interesting numbers are the speedup over jobs=1
// at hardware concurrency and the determinism check that the merged JSON is
// byte-identical either way.
//
// Repetitions are interleaved (1, N, 1, N, ...) so host frequency/thermal
// phases hit both modes alike, and the reported speedup is the MEDIAN of
// per-pair ratios — adjacent-in-time pairs move together under a phase
// shift instead of skewing the result (same protocol as micro_events).
// One serial pass takes only ~0.15 s, so there are enough repetitions for
// the serial side to total ~2 s: with 3, single noisy pairs swung the
// median from 2.3x to 4.0x on a 4-thread host.
//
// best_speedup is the best serial pass over the best parallel one. A
// co-tenant that holds cores for seconds slows most parallel passes and
// pulls the median under 2x (1.88x and 1.95x in 2 of 20 runs on a 4-thread
// host whose best-to-best read ~2.7x), but it must cover every rep to pull
// the best one down, so CI gates on best_speedup. A runner with one worker
// reads ~1x on both.
//
// Also profiles per-run construction cost: building a fresh 4-node Table 2
// Cluster, the setup the engine pays at every run point. Node DRAM is
// faulted in only where a run touches it, so the build touches almost none.
//
// Emits BENCH_sweep.json. Usage: micro_sweep [out.json] [--jobs N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "exp/runner.hpp"
#include "exp/sweeps.hpp"
#include "sim/simulator.hpp"

using namespace gputn;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds to run the whole plan at the given job count; the merged JSON is
/// appended to `jsons` for the cross-jobs determinism check.
double timed_run(const exp::Plan& plan, int jobs,
                 std::vector<std::string>& jsons) {
  exp::Runner runner(jobs);
  double t0 = now_s();
  exp::RunSummary summary = runner.run(plan);
  double secs = now_s() - t0;
  if (summary.failures != 0 || !summary.all_correct()) {
    std::fprintf(stderr, "micro_sweep: sweep failed at jobs=%d\n", jobs);
    std::exit(1);
  }
  jsons.push_back(exp::results_json(summary));
  return secs;
}

/// Microseconds to construct + destroy one 4-node Table 2 cluster.
double setup_us_once() {
  double t0 = now_s();
  {
    sim::Simulator sim;
    cluster::Cluster cl(sim, cluster::SystemConfig::table2(), 4);
  }
  return (now_s() - t0) * 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_sweep.json";
  if (argc > 1 && std::strncmp(argv[1], "--", 2) != 0) out_path = argv[1];
  const int hw = exp::Runner::hardware_jobs();
  const int jobs = exp::jobs_from_args(argc, argv, /*dflt=*/hw);
  const int reps = 15;

  exp::Plan plan = exp::mini_sweep_plan();
  std::printf("micro_sweep: %zu run points, jobs=1 vs jobs=%d (hw=%d), "
              "%d interleaved reps\n",
              plan.size(), jobs, hw, reps);

  // Per-run construction cost: the median of fresh builds, after one
  // throwaway build so code and data are hot.
  setup_us_once();
  std::vector<double> setups(11);
  for (double& s : setups) s = setup_us_once();
  std::sort(setups.begin(), setups.end());
  double setup_us = setups[setups.size() / 2];
  std::printf("  cluster setup: %.0f us\n", setup_us);

  std::vector<std::string> jsons;
  double best1 = 1e300;
  double bestN = 1e300;
  std::vector<double> ratios;
  for (int i = 0; i < reps; ++i) {
    double t1 = timed_run(plan, 1, jsons);
    double tN = timed_run(plan, jobs, jsons);
    best1 = std::min(best1, t1);
    bestN = std::min(bestN, tN);
    ratios.push_back(t1 / tN);
  }
  bool deterministic = true;
  for (const std::string& j : jsons) deterministic &= (j == jsons.front());
  std::sort(ratios.begin(), ratios.end());
  double speedup = ratios[ratios.size() / 2];
  double best_speedup = best1 / bestN;

  double pts = static_cast<double>(plan.size());
  std::printf("  jobs=1:  %6.2f s (%.1f points/s)\n", best1, pts / best1);
  std::printf("  jobs=%-2d: %6.2f s (%.1f points/s)\n", jobs, bestN,
              pts / bestN);
  std::printf("  speedup: %.2fx (median of pairs), %.2fx (best to best), "
              "merged output %s\n",
              speedup, best_speedup,
              deterministic ? "bit-identical" : "NONDETERMINISTIC");
  if (!deterministic) return 1;

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"points\": " << plan.size() << ",\n"
      << "  \"jobs\": " << jobs << ",\n"
      << "  \"hw_concurrency\": " << hw << ",\n"
      << "  \"jobs1_s\": " << best1 << ",\n"
      << "  \"jobsN_s\": " << bestN << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"best_speedup\": " << best_speedup << ",\n"
      << "  \"deterministic\": " << (deterministic ? "true" : "false")
      << ",\n"
      << "  \"setup_us\": " << setup_us << "\n"
      << "}\n";
  if (!out.good()) {
    std::fprintf(stderr, "micro_sweep: cannot write %s\n", out_path);
    return 1;
  }
  std::printf("  wrote %s\n", out_path);
  return 0;
}
