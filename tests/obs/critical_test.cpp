// Critical-path analyzer: blame categories must sum exactly to op latency,
// the CPU proxy's put path must blame measurably more server/queue time
// than GPU-TN's, diffs must self-compare clean and flag regressions, and
// malformed input must throw (the CLI turns that into a nonzero exit).
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "obs/critical.hpp"
#include "obs/flight.hpp"
#include "serve/serve.hpp"
#include "sim/units.hpp"

namespace gputn::obs {
namespace {

serve::ServeConfig mini_serve(workloads::Strategy strat,
                              FlightRecorder* rec) {
  serve::ServeConfig cfg;
  cfg.strategy = strat;
  cfg.clients = 2;
  cfg.servers = 2;
  cfg.tenants = 2;
  cfg.requests = 80;
  cfg.flight = rec;
  return cfg;
}

TEST(CriticalPath, BlameSumsExactlyToOpLatency) {
  // Every picosecond accounted for, none twice: the categories of every
  // recorded op add up to its end-to-end latency, on a real serve run.
  FlightRecorder rec(FlightConfig{});
  serve::ServeConfig cfg = mini_serve(workloads::Strategy::kGpuTn, &rec);
  ASSERT_TRUE(serve::run_serve(cfg).correct);

  Analysis a = analyze_flight(rec.json(), "test");
  ASSERT_EQ(a.runs.size(), 1u);
  ASSERT_GT(a.runs[0].ops.size(), 0u);
  int puts = 0;
  for (const OpRecord& op : a.runs[0].ops) {
    std::int64_t sum = 0;
    for (const auto& [cat, ps] : blame_op(op, a.runs[0].wire)) sum += ps;
    EXPECT_EQ(sum, op.latency()) << "op " << op_id(op) << " path "
                                 << op_path(op);
    if (op_path(op) == "put") ++puts;
  }
  EXPECT_GT(puts, 0);
}

TEST(CriticalPath, IdealWireMatchesFabricForUncongestedLegs) {
  // On an idle fabric the measured wire time IS the ideal: switch_queue
  // must come out zero, proving net::ideal_wire on the dump's wire
  // parameters agrees with the simulator's own arithmetic.
  FlightRecorder rec(FlightConfig{});
  serve::ServeConfig cfg = mini_serve(workloads::Strategy::kGpuTn, &rec);
  cfg.requests = 20;  // light load: no fabric queueing
  cfg.offered_load = 100000.0;
  ASSERT_TRUE(serve::run_serve(cfg).correct);
  Analysis a = analyze_flight(rec.json(), "test");
  for (const OpRecord& op : a.runs[0].ops) {
    auto blame = blame_op(op, a.runs[0].wire);
    EXPECT_EQ(blame["switch_queue"], 0) << "op " << op_id(op);
    EXPECT_GT(blame["wire"], 0);
  }
}

TEST(CriticalPath, CpuProxyPutPathBlamesServerMoreThanGpuTn) {
  // The acceptance separation: the CPU proxy's put path spends its tail in
  // the server (proxy scan + post), GPU-TN's does not — triggered responses
  // fire from the NIC. Compare the put-path server_proc rows directly.
  FlightRecorder cpu_rec(FlightConfig{});
  serve::ServeConfig cpu_cfg = mini_serve(workloads::Strategy::kCpu,
                                          &cpu_rec);
  ASSERT_TRUE(serve::run_serve(cpu_cfg).correct);
  FlightRecorder gtn_rec(FlightConfig{});
  serve::ServeConfig gtn_cfg = mini_serve(workloads::Strategy::kGpuTn,
                                          &gtn_rec);
  ASSERT_TRUE(serve::run_serve(gtn_cfg).correct);

  auto put_row = [](const Analysis& a,
                    const std::string& cat) -> const CategoryRow* {
    for (const PathTable& t : a.runs[0].paths) {
      if (t.path != "put") continue;
      for (const CategoryRow& r : t.rows) {
        if (r.category == cat) return &r;
      }
    }
    return nullptr;
  };
  Analysis cpu = analyze_flight(cpu_rec.json(), "cpu");
  Analysis gtn = analyze_flight(gtn_rec.json(), "gputn");
  const CategoryRow* cpu_sp = put_row(cpu, "server_proc");
  const CategoryRow* gtn_sp = put_row(gtn, "server_proc");
  ASSERT_NE(cpu_sp, nullptr);
  ASSERT_NE(gtn_sp, nullptr);
  // The CPU proxy's put tail is dominated by server-side time relative to
  // GPU-TN, whose responses need no host on the critical path.
  EXPECT_GT(cpu_sp->p999_ns, gtn_sp->p999_ns);
  EXPECT_GT(cpu_sp->share_pct, gtn_sp->share_pct);
  // And GPU-TN's put path actually used the trigger path.
  EXPECT_NE(put_row(gtn, "trigger_wait"), nullptr);
}

TEST(CriticalPath, SelfDiffIsCleanAndRegressionsAreFlagged) {
  FlightRecorder rec(FlightConfig{});
  serve::ServeConfig cfg = mini_serve(workloads::Strategy::kCpu, &rec);
  ASSERT_TRUE(serve::run_serve(cfg).correct);
  std::string dump = rec.json();
  Analysis a = analyze_flight(dump, "a");
  Analysis b = analyze_flight(dump, "b");

  AnalyzeOptions opt;
  AnalyzeDiff self = diff_analyses(a, b, opt);
  EXPECT_EQ(self.regressions, 0) << self.text;

  // Inflate one category's tail in the baseline's counterpart: current
  // being 10x slower than baseline must regress at the default threshold.
  Analysis worse = analyze_flight(dump, "worse");
  for (PathTable& t : worse.runs[0].paths) {
    for (CategoryRow& r : t.rows) {
      r.p99_ns *= 10.0;
      r.p999_ns *= 10.0;
    }
  }
  AnalyzeDiff reg = diff_analyses(worse, b, opt);
  EXPECT_GT(reg.regressions, 0);
  EXPECT_NE(reg.text.find("REGRESSION"), std::string::npos);
}

TEST(CriticalPath, ExemplarTraceDumpsTheSelectedOp) {
  FlightRecorder rec(FlightConfig{});
  serve::ServeConfig cfg = mini_serve(workloads::Strategy::kCpu, &rec);
  ASSERT_TRUE(serve::run_serve(cfg).correct);
  Analysis a = analyze_flight(rec.json(), "test");
  ASSERT_FALSE(a.runs[0].exemplars.empty());
  const OpRecord& slowest = a.runs[0].exemplars.begin()->second.front();

  std::string path = testing::TempDir() + "flight_exemplar_trace.json";
  ASSERT_TRUE(dump_exemplar_trace(a.runs[0], op_id(slowest), path));
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"blame\""), std::string::npos);
  EXPECT_NE(text.find("initiator"), std::string::npos);
  // A selector that matches nothing reports failure instead of writing.
  EXPECT_FALSE(dump_exemplar_trace(a.runs[0], 0xffffffffffffffffull, path));
}

TEST(CriticalPath, MalformedInputThrows) {
  EXPECT_THROW(analyze_flight("{not json", "x"), std::runtime_error);
  EXPECT_THROW(analyze_flight("42", "x"), std::runtime_error);
  EXPECT_THROW(analyze_flight("{\"no_ops\":true}", "x"), std::runtime_error);
  EXPECT_THROW(analyze_flight("[{\"id\":\"p\"}]", "x"), std::runtime_error);
  // Ops missing their req leg are malformed, not silently skipped.
  EXPECT_THROW(analyze_flight("{\"ops\":[{\"tenant\":0}]}", "x"),
               std::runtime_error);
}

TEST(CriticalPath, ParsesMergedArraysAndKeepsRunOrder) {
  FlightRecorder r1(FlightConfig{});
  FlightRecorder r2(FlightConfig{});
  serve::ServeConfig c1 = mini_serve(workloads::Strategy::kCpu, &r1);
  c1.requests = 20;
  ASSERT_TRUE(serve::run_serve(c1).correct);
  serve::ServeConfig c2 = mini_serve(workloads::Strategy::kGpuTn, &r2);
  c2.requests = 20;
  ASSERT_TRUE(serve::run_serve(c2).correct);
  r1.set_run_info("serve", "CPU");
  r2.set_run_info("serve", "GPU-TN");
  std::string merged =
      merged_flight_json({{"cpu/p0", &r1}, {"gputn/p1", &r2}});
  Analysis a = analyze_flight(merged, "merged");
  ASSERT_EQ(a.runs.size(), 2u);
  EXPECT_EQ(a.runs[0].id, "cpu/p0");
  EXPECT_EQ(a.runs[1].id, "gputn/p1");
  EXPECT_EQ(a.runs[0].mode, "CPU");
  EXPECT_EQ(a.runs[1].mode, "GPU-TN");
}

}  // namespace
}  // namespace gputn::obs
