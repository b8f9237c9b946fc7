// Zero-drift regression test for the time-series sampler (and, transitively,
// for the always-on utilization ledger).
//
// The sampler injects real events into the calendar queue, so the proof
// obligation is strict: running the fig09/fig10 mini configurations with a
// TimeSeries attached must leave every observable — the workload result,
// the verification checksum, the final simulated time, and the full
// exported stats JSON (counters, util.* ledgers, latency histograms) —
// bit-identical to the unsampled run. Exact equality on purpose: a
// one-picosecond shift means a sampler event perturbed workload ordering,
// which is a correctness bug, not a tolerance issue (same doctrine as
// tests/workloads/golden_test.cpp, and the same reason the golden total
// time is re-pinned here).
#include <gtest/gtest.h>

#include "obs/flight.hpp"
#include "obs/timeseries.hpp"
#include "serve/serve.hpp"
#include "sim/units.hpp"
#include "workloads/allreduce.hpp"
#include "workloads/jacobi.hpp"

namespace gputn::workloads {
namespace {

TEST(ZeroDrift, JacobiIdenticalWithAndWithoutSampling) {
  JacobiConfig plain;
  plain.strategy = Strategy::kGpuTn;
  plain.n = 32;
  plain.iterations = 3;
  JacobiResult base = run_jacobi(plain);

  obs::TimeSeries ts(sim::ns(500));
  JacobiConfig sampled = plain;
  sampled.timeseries = &ts;
  JacobiResult obs_run = run_jacobi(sampled);

  // The sampler must actually have sampled — otherwise this test proves
  // nothing. 10.9 us at a 500 ns interval gives the baseline row plus 20+.
  EXPECT_GT(ts.rows(), 10u);

  ASSERT_TRUE(base.correct);
  ASSERT_TRUE(obs_run.correct);
  EXPECT_EQ(base.total_time, 10921398);  // golden, pinned at the seed
  EXPECT_EQ(obs_run.total_time, base.total_time);
  EXPECT_EQ(obs_run.checksum, base.checksum);
  EXPECT_EQ(obs_run.stats_json(), base.stats_json());
}

TEST(ZeroDrift, AllreduceIdenticalWithAndWithoutSampling) {
  AllreduceConfig plain;
  plain.strategy = Strategy::kGpuTn;
  plain.nodes = 4;
  plain.elements = 65536;
  AllreduceResult base = run_allreduce(plain);

  obs::TimeSeries ts(sim::us(1));
  AllreduceConfig sampled = plain;
  sampled.timeseries = &ts;
  AllreduceResult obs_run = run_allreduce(sampled);

  EXPECT_GT(ts.rows(), 10u);
  ASSERT_TRUE(base.correct);
  ASSERT_TRUE(obs_run.correct);
  EXPECT_EQ(obs_run.total_time, base.total_time);
  EXPECT_EQ(obs_run.stats_json(), base.stats_json());
}

TEST(ZeroDrift, JacobiIdenticalWithAndWithoutFlightRecorder) {
  // The flight recorder taps message stamps at delivery time — pure
  // bookkeeping, zero events injected. Same strict contract as the
  // sampler: recorder-on must be bit-identical to recorder-off, golden
  // total time included.
  JacobiConfig plain;
  plain.strategy = Strategy::kGpuTn;
  plain.n = 32;
  plain.iterations = 3;
  JacobiResult base = run_jacobi(plain);

  obs::FlightRecorder flight(obs::FlightConfig{});
  JacobiConfig recorded = plain;
  recorded.flight = &flight;
  JacobiResult rec_run = run_jacobi(recorded);

  EXPECT_GT(flight.offered(), 0u);  // the recorder genuinely saw traffic
  ASSERT_TRUE(base.correct);
  ASSERT_TRUE(rec_run.correct);
  EXPECT_EQ(base.total_time, 10921398);  // golden, pinned at the seed
  EXPECT_EQ(rec_run.total_time, base.total_time);
  EXPECT_EQ(rec_run.checksum, base.checksum);
  EXPECT_EQ(rec_run.stats_json(), base.stats_json());
}

TEST(ZeroDrift, AllreduceIdenticalWithAndWithoutFlightRecorder) {
  AllreduceConfig plain;
  plain.strategy = Strategy::kGpuTn;
  plain.nodes = 4;
  plain.elements = 65536;
  AllreduceResult base = run_allreduce(plain);

  obs::FlightRecorder flight(obs::FlightConfig{});
  AllreduceConfig recorded = plain;
  recorded.flight = &flight;
  AllreduceResult rec_run = run_allreduce(recorded);

  EXPECT_GT(flight.offered(), 0u);
  ASSERT_TRUE(base.correct);
  ASSERT_TRUE(rec_run.correct);
  EXPECT_EQ(rec_run.total_time, base.total_time);
  EXPECT_EQ(rec_run.stats_json(), base.stats_json());
}

TEST(ZeroDrift, ServeIdenticalWithAndWithoutFlightRecorder) {
  // Serve stamps op tags and tenants onto its descriptors whether or not a
  // recorder is attached; the recorder itself must add nothing observable —
  // per-tenant SLO counters and histograms included.
  serve::ServeConfig plain;
  plain.strategy = workloads::Strategy::kCpu;
  plain.clients = 2;
  plain.servers = 2;
  plain.tenants = 2;
  plain.requests = 60;
  serve::ServeResult base = serve::run_serve(plain);

  obs::FlightRecorder flight(obs::FlightConfig{});
  serve::ServeConfig recorded = plain;
  recorded.flight = &flight;
  serve::ServeResult rec_run = serve::run_serve(recorded);

  EXPECT_GT(flight.offered(), 0u);
  ASSERT_TRUE(base.correct);
  ASSERT_TRUE(rec_run.correct);
  EXPECT_EQ(rec_run.total_time, base.total_time);
  EXPECT_EQ(rec_run.stats_json(), base.stats_json());
}

TEST(ZeroDrift, FatTreeAllreduceIdenticalWithFullObservability) {
  // The multi-switch fabric adds per-port credit ledgers and trunk-link
  // trackers; all of it must stay pure bookkeeping. Sampler + flight
  // recorder attached to a credit-limited fat-tree run must not move a
  // picosecond.
  AllreduceConfig plain;
  plain.strategy = Strategy::kGpuTn;
  plain.nodes = 8;
  plain.elements = 16 * 1024;
  cluster::SystemConfig sys = cluster::SystemConfig::table2();
  sys.fabric.topology = "fat-tree:k=4";
  sys.fabric.routing = "adaptive";
  sys.fabric.credits_per_port = 4;
  AllreduceResult base = run_allreduce(plain, sys);

  obs::TimeSeries ts(sim::us(1));
  obs::FlightRecorder flight(obs::FlightConfig{});
  AllreduceConfig observed = plain;
  observed.timeseries = &ts;
  observed.flight = &flight;
  AllreduceResult obs_run = run_allreduce(observed, sys);

  EXPECT_GT(ts.rows(), 5u);
  EXPECT_GT(flight.offered(), 0u);
  ASSERT_TRUE(base.correct);
  ASSERT_TRUE(obs_run.correct);
  EXPECT_EQ(obs_run.total_time, base.total_time);
  EXPECT_EQ(obs_run.stats_json(), base.stats_json());
}

TEST(ZeroDrift, LedgerCountersAreDeterministicAcrossRuns) {
  // The always-on ledger itself: two identical runs export identical util.*
  // counters (guards against any hidden host-side state, e.g. unordered
  // iteration, leaking into the export).
  JacobiConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.n = 32;
  cfg.iterations = 3;
  JacobiResult a = run_jacobi(cfg);
  JacobiResult b = run_jacobi(cfg);
  EXPECT_EQ(a.stats_json(), b.stats_json());
  // And the ledger is genuinely on: the window plus at least one busy
  // resource made it into the export.
  EXPECT_EQ(a.net_stats.counter_value("util.window_ps"),
            static_cast<std::uint64_t>(a.total_time));
  EXPECT_GT(a.net_stats.counter_value("util.node0.gpu.cu.busy_ps"), 0u);
  EXPECT_GT(a.net_stats.counter_value("util.link.up0.busy_ps"), 0u);
}

}  // namespace
}  // namespace gputn::workloads
