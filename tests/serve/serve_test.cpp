// Serving workload: correctness, determinism, SLO accounting, and the
// CPU-proxy vs GPU-TN tail separation under load.
#include "serve/serve.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cluster/config.hpp"
#include "workloads/registry.hpp"
#include "workloads/strategy.hpp"

namespace gputn::serve {
namespace {

using workloads::Strategy;

ServeConfig small_config(Strategy s) {
  ServeConfig cfg;
  cfg.strategy = s;
  cfg.quiet = true;
  cfg.tenants = 2;
  cfg.window = 2;
  cfg.requests = 80;
  cfg.keyspace = 128;
  cfg.read_fraction = 0.5;
  cfg.offered_load = 1e6;
  return cfg;
}

TEST(Serve, RejectsInvalidConfigs) {
  ServeConfig cfg = small_config(Strategy::kHdn);
  EXPECT_THROW(run_serve(cfg), std::invalid_argument);  // CPU / GPU-TN only
  cfg = small_config(Strategy::kCpu);
  cfg.nodes = 3;  // clients + servers is 4
  EXPECT_THROW(run_serve(cfg), std::invalid_argument);
  cfg = small_config(Strategy::kCpu);
  cfg.value_bytes = 8;  // header needs 16
  EXPECT_THROW(run_serve(cfg), std::invalid_argument);
  cfg = small_config(Strategy::kCpu);
  cfg.read_fraction = 1.5;
  EXPECT_THROW(run_serve(cfg), std::invalid_argument);
}

TEST(Serve, BothStrategiesVerifyAndServeEveryRequest) {
  for (Strategy s : {Strategy::kCpu, Strategy::kGpuTn}) {
    ServeResult res = run_serve(small_config(s));
    EXPECT_TRUE(res.correct) << workloads::strategy_name(s);
    EXPECT_EQ(res.requests_total, 160u);
    ASSERT_EQ(res.tenants.size(), 2u);
    for (const TenantSummary& t : res.tenants) {
      EXPECT_EQ(t.ops, 80u);
      EXPECT_EQ(t.gets + t.puts, t.ops);
      EXPECT_GT(t.gets, 0u);
      EXPECT_GT(t.puts, 0u);
      EXPECT_GT(t.p99_ns, 0.0);
      EXPECT_LE(t.p50_ns, t.p99_ns);
      EXPECT_LE(t.p99_ns, t.p999_ns);
      EXPECT_LE(t.p999_ns, t.max_ns);
    }
  }
}

TEST(Serve, ExportsPerTenantMetricContract) {
  ServeResult res = run_serve(small_config(Strategy::kGpuTn));
  // lat.* histograms drive gputn report unmodified; counters carry goodput.
  EXPECT_NE(res.net_stats.find_histogram("lat.serve.t0"), nullptr);
  EXPECT_NE(res.net_stats.find_histogram("lat.serve.t1"), nullptr);
  EXPECT_NE(res.net_stats.find_histogram("lat.serve.get"), nullptr);
  EXPECT_NE(res.net_stats.find_histogram("lat.serve.put"), nullptr);
  EXPECT_EQ(res.net_stats.counter_value("serve.t0.ops"), 80u);
  EXPECT_EQ(res.net_stats.counter_value("serve.ops"), 160u);
  EXPECT_GT(res.net_stats.counter_value("serve.t0.bytes"), 0u);
  EXPECT_LE(res.net_stats.counter_value("serve.t0.slo_ok"), 80u);
  // Doorbell batching visible: fewer doorbells than posted commands.
  EXPECT_EQ(res.net_stats.counter_value("serve.qp.posted"), 160u);
  EXPECT_LT(res.net_stats.counter_value("serve.qp.doorbells"), 160u);
  EXPECT_GT(res.net_stats.counter_value("serve.qp.doorbells"), 0u);
  // GPU-TN setup (registration + launch) precedes traffic.
  EXPECT_GT(res.setup_time, 0);
  EXPECT_EQ(res.serve_window, res.total_time - res.setup_time);
}

TEST(Serve, DeterministicAcrossRepeatedRuns) {
  for (Strategy s : {Strategy::kCpu, Strategy::kGpuTn}) {
    ServeResult a = run_serve(small_config(s));
    ServeResult b = run_serve(small_config(s));
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.stats_json(), b.stats_json());
  }
  // A different seed genuinely reshuffles the schedule.
  ServeConfig reseeded = small_config(Strategy::kCpu);
  reseeded.seed = 99;
  EXPECT_NE(run_serve(reseeded).stats_json(),
            run_serve(small_config(Strategy::kCpu)).stats_json());
}

TEST(Serve, GpuTnBeatsCpuProxyTailUnderLoad) {
  // Past the CPU proxy's ~2M put/s serial service rate, queueing blows up
  // the CPU strategy's p99 while GPU-TN's parallel slots absorb the load.
  auto p99 = [](Strategy s) {
    ServeConfig cfg;
    cfg.strategy = s;
    cfg.quiet = true;
    cfg.tenants = 4;
    cfg.window = 4;
    cfg.requests = 200;
    cfg.keyspace = 256;
    cfg.read_fraction = 0.5;
    cfg.offered_load = 3e6;
    ServeResult res = run_serve(cfg);
    EXPECT_TRUE(res.correct);
    double worst = 0.0;
    for (const TenantSummary& t : res.tenants) {
      worst = std::max(worst, t.p99_ns);
    }
    return worst;
  };
  double cpu = p99(Strategy::kCpu);
  double gputn = p99(Strategy::kGpuTn);
  EXPECT_GT(cpu, 1.5 * gputn)
      << "CPU proxy p99 " << cpu << " ns vs GPU-TN " << gputn << " ns";
}

TEST(Serve, SloAccountingSeparatesConformingOps) {
  // With a 1 us budget at moderate load most ops miss; with 1 s all hit.
  ServeConfig tight = small_config(Strategy::kCpu);
  tight.slo = sim::us(1);
  ServeResult t = run_serve(tight);
  ServeConfig loose = small_config(Strategy::kCpu);
  loose.slo = sim::sec(1);
  ServeResult l = run_serve(loose);
  EXPECT_EQ(l.net_stats.counter_value("serve.slo_ok"), 160u);
  EXPECT_LT(t.net_stats.counter_value("serve.slo_ok"), 160u);
  for (const TenantSummary& ts : l.tenants) {
    EXPECT_GT(ts.goodput_rps(l.serve_window), 0.0);
  }
}

TEST(Serve, NicRateLimitThrottlesThroughput) {
  ServeConfig cfg = small_config(Strategy::kCpu);
  ServeResult base = run_serve(cfg);
  cfg.nic_rate_limit = 2e5;  // 5 us per NIC command: well under offered load
  cfg.nic_rate_burst = 2;
  ServeResult limited = run_serve(cfg);
  EXPECT_TRUE(limited.correct);
  EXPECT_GT(limited.total_time, base.total_time);
  double worst_base = 0.0, worst_limited = 0.0;
  for (const TenantSummary& t : base.tenants) {
    worst_base = std::max(worst_base, t.p99_ns);
  }
  for (const TenantSummary& t : limited.tenants) {
    worst_limited = std::max(worst_limited, t.p99_ns);
  }
  EXPECT_GT(worst_limited, worst_base);
}

TEST(Serve, DriverSeedReachesTheRequestSchedule) {
  // `gputn serve --seed S` (and replica r of `--replicas`, seed S + r)
  // reaches the registry entry only as the system config's fault seed.
  workloads::Registry& reg = workloads::Registry::instance();
  if (reg.find("serve") == nullptr) {
    workloads::register_builtin_workloads(reg);
  }
  workloads::WorkloadParams params;
  params.set("requests", "60");
  workloads::RunOptions opts;
  opts.quiet = true;
  auto via_driver = [&](std::uint64_t seed) {
    return reg.find("serve")
        ->run(opts, params,
              cluster::SystemConfig::table2_with_loss(0.0, seed))
        .stats_json();
  };
  auto direct = [](std::uint64_t seed) {
    ServeConfig cfg;
    cfg.quiet = true;
    cfg.requests = 60;
    cfg.seed = seed;
    return run_serve(cfg).stats_json();
  };
  std::string s1 = via_driver(1);
  std::string s2 = via_driver(2);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(s1, direct(1));
  EXPECT_EQ(s2, direct(2));
}

}  // namespace
}  // namespace gputn::serve
