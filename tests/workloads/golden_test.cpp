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
// The same exactness contract extends to the sharded parallel engine: the
// Shards* tests below run each workload at --shards 1/2/4 and require every
// result, checksum, stats export and flight dump to be bit-identical (only
// the util.shard*/util.engine* telemetry, a function of the partition by
// construction, is stripped before comparing).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

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

/// Stats JSON with the engine's partition-dependent telemetry removed —
/// everything else must match bit-for-bit across shard counts.
std::string strip_shard_keys(const std::string& json) {
  std::istringstream in(json);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("\"util.shard") != std::string::npos ||
        line.find("\"util.engine") != std::string::npos) {
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

/// One run's full observable surface: results + stats + flight dump.
struct RunImage {
  sim::Tick total_time = 0;
  std::string stats;
  std::string flight;
};

template <typename Cfg, typename Run>
RunImage image_at(Cfg cfg, int shards, Run run) {
  obs::FlightRecorder rec{obs::FlightConfig{}};
  cfg.shards = shards;
  cfg.flight = &rec;
  auto r = run(cfg);
  EXPECT_TRUE(r.correct) << "shards=" << shards;
  RunImage img;
  img.total_time = r.total_time;
  img.stats = strip_shard_keys(r.stats_json());
  img.flight = rec.json();
  return img;
}

void expect_identical(const RunImage& base, const RunImage& img, int shards) {
  EXPECT_EQ(base.total_time, img.total_time) << "shards=" << shards;
  EXPECT_EQ(base.stats, img.stats) << "shards=" << shards;
  EXPECT_EQ(base.flight, img.flight) << "shards=" << shards;
}

TEST(Golden, ShardsJacobiFig09BitIdentical) {
  JacobiConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.n = 32;
  cfg.iterations = 3;
  double checksum[3];
  RunImage base;
  int i = 0;
  for (int s : {1, 2, 4}) {
    obs::FlightRecorder rec{obs::FlightConfig{}};
    JacobiConfig c = cfg;
    c.shards = s;
    c.flight = &rec;
    JacobiResult r = run_jacobi(c);
    ASSERT_TRUE(r.correct) << "shards=" << s;
    checksum[i++] = r.checksum;
    EXPECT_EQ(r.total_time, 10921398) << "shards=" << s;
    RunImage img{r.total_time, strip_shard_keys(r.stats_json()), rec.json()};
    if (s == 1) {
      base = img;
    } else {
      expect_identical(base, img, s);
    }
  }
  EXPECT_EQ(checksum[0], 506.31523840206148);
  EXPECT_EQ(checksum[1], checksum[0]);
  EXPECT_EQ(checksum[2], checksum[0]);
}

TEST(Golden, ShardsAllreduceFig10BitIdentical) {
  AllreduceConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.nodes = 4;
  cfg.elements = 65536;
  RunImage base = image_at(cfg, 1, [](const AllreduceConfig& c) {
    return run_allreduce(c);
  });
  EXPECT_EQ(base.total_time, 36134921);
  for (int s : {2, 4}) {
    RunImage img = image_at(cfg, s, [](const AllreduceConfig& c) {
      return run_allreduce(c);
    });
    expect_identical(base, img, s);
  }
}

TEST(Golden, ShardsFatTreeAllreduceBitIdentical) {
  // Multi-switch fabric: the union-find trunk partition plus both flavors
  // of cross-shard host edge (node->switch and switch->node) are on the
  // path, at a shard count that does not divide the switch components.
  AllreduceConfig cfg;
  cfg.strategy = Strategy::kGpuTn;
  cfg.topology = "fat-tree:k=4";
  cfg.nodes = 8;
  cfg.elements = 4096;
  RunImage base = image_at(cfg, 1, [](const AllreduceConfig& c) {
    return run_allreduce(c);
  });
  for (int s : {2, 4}) {
    RunImage img = image_at(cfg, s, [](const AllreduceConfig& c) {
      return run_allreduce(c);
    });
    expect_identical(base, img, s);
  }
}

TEST(Golden, ShardsServeBitIdentical) {
  // The serving workload exercises the engine's setup-release barrier
  // (step(next_time()) single-tick windows) on top of the usual traffic.
  serve::ServeConfig cfg;
  cfg.requests = 40;
  serve::ServeResult base_r;
  RunImage base;
  for (int s : {1, 2, 4}) {
    obs::FlightRecorder rec{obs::FlightConfig{}};
    serve::ServeConfig c = cfg;
    c.shards = s;
    c.flight = &rec;
    serve::ServeResult r = serve::run_serve(c);
    ASSERT_TRUE(r.correct) << "shards=" << s;
    RunImage img{r.total_time, strip_shard_keys(r.stats_json()), rec.json()};
    if (s == 1) {
      base = img;
      base_r = r;
    } else {
      expect_identical(base, img, s);
      EXPECT_EQ(r.setup_time, base_r.setup_time) << "shards=" << s;
      EXPECT_EQ(r.requests_total, base_r.requests_total) << "shards=" << s;
    }
  }
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
  };
  for (Pin pin : {Pin{Strategy::kGpuTn, 329480000, 14261},
                  Pin{Strategy::kCpu, 808985341, 34002}}) {
    SCOPED_TRACE(strategy_name(pin.strategy));
    serve::ServeConfig cfg;
    cfg.strategy = pin.strategy;
    cfg.quiet = true;
    cfg.clients = 2;
    cfg.servers = 1;
    cfg.tenants = 12;
    cfg.read_fraction = 0.5;
    cfg.requests = 300;
    RunImage base;
    for (int s : {1, 2, 3}) {
      std::uint64_t cpu_ops = 0;
      RunImage img = image_at(cfg, s, [&](const serve::ServeConfig& c) {
        serve::ServeResult r = serve::run_serve(c);
        for (const auto& [key, v] : r.net_stats.counters()) {
          if (key.starts_with("util.node") && key.ends_with(".cpu.ops")) {
            cpu_ops += v;
          }
        }
        return r;
      });
      EXPECT_EQ(img.total_time, pin.total_time) << "shards=" << s;
      EXPECT_EQ(cpu_ops, pin.cpu_ops) << "shards=" << s;
      if (s == 1) {
        base = img;
      } else {
        expect_identical(base, img, s);
      }
    }
  }
}

}  // namespace
}  // namespace gputn::workloads
