// Golden regression test for the event engine.
//
// The values below are exact simulated times and network counters captured
// from the original priority_queue engine (seed commit) on the fig09/fig10
// workload configurations. The calendar-queue rewrite must be an
// implementation swap only: every timestamp, every counter, and every
// reduction result has to come out bit-identical. If a change to the engine
// (or to anything on the hot path) moves one of these numbers, it changed
// observable event ordering — that is a correctness bug, not a tolerance
// issue, which is why every comparison here is exact equality.
// The *FlightDigest tests and the serve scans test also pin an FNV-1a-64
// digest of each run's flight dump. The dump's op order comes from the
// per-node spools' replay (obs::replay_spools), which no stat sees:
// recording straight into the recorder keeps every counter but reorders
// ops in most dumps, and moves these digests.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "obs/flight.hpp"
#include "serve/serve.hpp"
#include "workloads/allreduce.hpp"
#include "workloads/jacobi.hpp"
#include "workloads/microbench.hpp"

namespace gputn::workloads {
namespace {

struct NetGolden {
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t switch_packets;
  std::uint64_t link_bytes;
  std::uint64_t link_packets;
  std::uint64_t e2e_count;
  double e2e_sum;
};

void expect_net(const sim::StatRegistry& s, const NetGolden& g) {
  EXPECT_EQ(s.counter_value("net.messages"), g.messages);
  EXPECT_EQ(s.counter_value("net.bytes"), g.bytes);
  EXPECT_EQ(s.counter_value("net.switch.packets"), g.switch_packets);
  EXPECT_EQ(s.counter_value("net.link.bytes"), g.link_bytes);
  EXPECT_EQ(s.counter_value("net.link.packets"), g.link_packets);
  const auto* h = s.find_histogram("lat.end_to_end");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), g.e2e_count);
  EXPECT_EQ(h->summary().sum(), g.e2e_sum);
}

TEST(Golden, JacobiGpuTnFig09) {
  JacobiConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.n = 32;
  cfg.iterations = 3;
  JacobiResult r = run_jacobi(cfg);
  ASSERT_TRUE(r.correct);
  EXPECT_EQ(r.total_time, 10921398);
  EXPECT_EQ(r.checksum, 506.31523840206148);
  expect_net(r.net_stats, {48, 15360, 48, 32256, 96, 48, 27860.0});
}

TEST(Golden, JacobiHdnFig09) {
  JacobiConfig cfg;
  cfg.strategy = Strategy::kHdn;
  cfg.n = 32;
  cfg.iterations = 3;
  JacobiResult r = run_jacobi(cfg);
  ASSERT_TRUE(r.correct);
  EXPECT_EQ(r.total_time, 13851398);
  expect_net(r.net_stats, {48, 15360, 48, 32256, 96, 48, 26772.0});
}

TEST(Golden, AllreduceGpuTnFig10) {
  AllreduceConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.nodes = 4;
  cfg.elements = 65536;
  AllreduceResult r = run_allreduce(cfg);
  ASSERT_TRUE(r.correct);
  EXPECT_EQ(r.max_error, 0.0);
  EXPECT_EQ(r.total_time, 36134921);
  expect_net(r.net_stats, {192, 1585152, 576, 3188736, 1152, 192, 842612.0});
}

TEST(Golden, AllreduceGdsFig10) {
  AllreduceConfig cfg;
  cfg.strategy = Strategy::kGds;
  cfg.nodes = 4;
  cfg.elements = 65536;
  AllreduceResult r = run_allreduce(cfg);
  ASSERT_TRUE(r.correct);
  EXPECT_EQ(r.total_time, 53340000);
  expect_net(r.net_stats, {24, 1574400, 408, 3161856, 816, 24, 159936.0});
}

TEST(Golden, MicrobenchGpuTnTable1) {
  MicrobenchResult r = run_microbench(Strategy::kGpuTn);
  EXPECT_EQ(r.target_completion, 2940000);
  EXPECT_EQ(r.initiator_completion, 3980000);
}

/// FNV-1a-64, the flight dumps' digest.
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Runs `cfg` with a default flight recorder attached; returns the result
/// and the digest of the recorder's dump.
template <typename Cfg, typename Run>
auto run_with_flight(Cfg cfg, Run run) {
  obs::FlightRecorder rec{obs::FlightConfig{}};
  cfg.flight = &rec;
  auto r = run(cfg);
  return std::pair{std::move(r), fnv1a64(rec.json())};
}

TEST(Golden, JacobiFig09FlightDigest) {
  JacobiConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.n = 32;
  cfg.iterations = 3;
  auto [r, digest] = run_with_flight(
      cfg, [](const JacobiConfig& c) { return run_jacobi(c); });
  ASSERT_TRUE(r.correct);
  EXPECT_EQ(r.total_time, 10921398);
  EXPECT_EQ(r.checksum, 506.31523840206148);
  EXPECT_EQ(digest, 0xdd784490eb2cbbfcull);
}

TEST(Golden, AllreduceFig10FlightDigest) {
  AllreduceConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.nodes = 4;
  cfg.elements = 65536;
  auto [r, digest] = run_with_flight(
      cfg, [](const AllreduceConfig& c) { return run_allreduce(c); });
  ASSERT_TRUE(r.correct);
  EXPECT_EQ(r.total_time, 36134921);
  EXPECT_EQ(digest, 0xd6710553c18743e4ull);
}

TEST(Golden, FatTreeAllreduceFlightDigest) {
  // Multi-switch fabric: trunk links between switches and per-port credit
  // returns on the path.
  AllreduceConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.nodes = 8;
  cfg.elements = 4096;
  auto [r, digest] = run_with_flight(cfg, [](const AllreduceConfig& c) {
    cluster::SystemConfig sys = cluster::SystemConfig::table2();
    sys.fabric.topology = "fat-tree:k=4";
    return run_allreduce(c, sys);
  });
  ASSERT_TRUE(r.correct);
  EXPECT_EQ(r.total_time, 27357754);
  EXPECT_EQ(digest, 0x293724c15d3c23cdull);
}

TEST(Golden, ServeFlightDigest) {
  // The serving workload's setup phase runs tick by tick up to the
  // traffic-release tick before the clients start.
  serve::ServeConfig cfg;
  cfg.requests = 40;
  auto [r, digest] = run_with_flight(
      cfg, [](const serve::ServeConfig& c) { return serve::run_serve(c); });
  ASSERT_TRUE(r.correct);
  EXPECT_EQ(r.total_time, 56141278);
  EXPECT_EQ(r.setup_time, 450000);
  EXPECT_EQ(r.requests_total, 160u);
  EXPECT_EQ(digest, 0x27ac6c1cd01db61eull);
}

TEST(Golden, ServeMultiSlotScansBitIdentical) {
  // 48 request slots on 24 work-groups, so every serving work-group scans
  // two, and up to 24 completion waiters per client reactor: the shapes of
  // the multi-word spin-wait (mem::MultiSpinWait). Pinned at the
  // event-per-read scans it replaced.
  struct Pin {
    Strategy strategy;
    sim::Tick total_time;
    std::uint64_t cpu_ops;
    std::uint64_t flight_digest;
  };
  const Pin pins[] = {
      {Strategy::kGpuTn, 329480000, 14261, 0xa09fbd79ea950c96ull},
      {Strategy::kCpu, 808985341, 34002, 0x5643946a1c992d2full}};
  for (const Pin& pin : pins) {
    SCOPED_TRACE(strategy_name(pin.strategy));
    serve::ServeConfig cfg;
    cfg.strategy = pin.strategy;
    cfg.quiet = true;
    cfg.clients = 2;
    cfg.servers = 1;
    cfg.tenants = 12;
    cfg.read_fraction = 0.5;
    cfg.requests = 300;
    auto [r, digest] = run_with_flight(
        cfg, [](const serve::ServeConfig& c) { return serve::run_serve(c); });
    ASSERT_TRUE(r.correct);
    std::uint64_t cpu_ops = 0;
    for (const auto& [key, v] : r.net_stats.counters()) {
      if (key.starts_with("util.node") && key.ends_with(".cpu.ops")) {
        cpu_ops += v;
      }
    }
    EXPECT_EQ(r.total_time, pin.total_time);
    EXPECT_EQ(cpu_ops, pin.cpu_ops);
    EXPECT_EQ(digest, pin.flight_digest);
  }
}

}  // namespace
}  // namespace gputn::workloads
