#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "../support/json_lite.hpp"
#include "cluster/cluster.hpp"
#include "sim/sync.hpp"

namespace gputn::sim {
namespace {

TEST(Trace, SpansAndInstantsSerialize) {
  TraceRecorder t;
  t.span("lane.a", "work", "cat", us(1), us(3));
  t.instant("lane.b", "tick", "cat", us(2));
  EXPECT_EQ(t.event_count(), 2u);
  std::string json = t.to_json();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("lane.a"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
}

TEST(Trace, EscapesQuotesInNames) {
  TraceRecorder t;
  t.instant("lane", "odd\"name", "cat", 0);
  std::string json = t.to_json();
  EXPECT_NE(json.find("odd\\\"name"), std::string::npos);
}

TEST(Trace, EscapesBackslashesInNames) {
  TraceRecorder t;
  t.instant("lane", "a\\b", "cat", 0);
  std::string json = t.to_json();
  EXPECT_NE(json.find("a\\\\b"), std::string::npos);
  // The raw (unescaped) sequence must not survive: a single backslash
  // followed by 'b' would be the invalid-JSON \b escape at parse time.
  EXPECT_EQ(json.find("\"a\\b\""), std::string::npos);
}

TEST(Trace, EscapesCommonControlCharacters) {
  TraceRecorder t;
  t.instant("lane", "line1\nline2\ttabbed\rcr", "cat", 0);
  std::string json = t.to_json();
  EXPECT_NE(json.find("line1\\nline2\\ttabbed\\rcr"), std::string::npos);
  // No raw control characters may remain inside the emitted strings.
  EXPECT_EQ(json.find("line1\nline2"), std::string::npos);
}

TEST(Trace, EscapesRareControlCharactersAsUnicode) {
  TraceRecorder t;
  std::string name = "x";
  name.push_back('\x01');
  name.push_back('\x1f');
  name += "y";
  t.instant("lane", name, "cat", 0);
  std::string json = t.to_json();
  EXPECT_NE(json.find("x\\u0001\\u001fy"), std::string::npos);
}

TEST(Trace, EscapesCategoryAndLaneNames) {
  TraceRecorder t;
  t.span("lane\"q", "name", "cat\\c", 0, ns(5));
  std::string json = t.to_json();
  EXPECT_NE(json.find("lane\\\"q"), std::string::npos);
  EXPECT_NE(json.find("cat\\\\c"), std::string::npos);
}

TEST(Trace, LanesGetStableIds) {
  TraceRecorder t;
  t.instant("x", "a", "c", 0);
  t.instant("y", "b", "c", 0);
  t.instant("x", "c", "c", 0);
  std::string json = t.to_json();
  // Two thread_name metadata records.
  std::size_t first = json.find("thread_name");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(json.find("thread_name", first + 1), std::string::npos);
}

TEST(Trace, ClusterIntegrationCapturesGpuNicTrigger) {
  Simulator sim;
  cluster::SystemConfig cfg = cluster::SystemConfig::table2();
  cfg.dram_bytes = 4u << 20;
  cluster::Cluster cluster(sim, cfg, 2);
  TraceRecorder trace;
  cluster.enable_tracing(trace);

  auto& a = cluster.node(0);
  auto& b = cluster.node(1);
  mem::Addr src = a.memory().alloc(64);
  mem::Addr dst = b.memory().alloc(64);
  mem::Addr flag = b.rt().alloc_flag();
  sim.spawn(
      [](cluster::Node& n, mem::Addr s, mem::Addr d, mem::Addr f)
          -> Task<> {
        nic::PutDesc put;
        put.target = 1;
        put.local_addr = s;
        put.bytes = 64;
        put.remote_addr = d;
        put.remote_flag = f;
        co_await n.rt().trig_put(1, 1, put);
        mem::Addr trig = n.rt().trigger_addr();
        gpu::KernelDesc k;
        k.num_wgs = 1;
        k.fn = [trig](gpu::WorkGroupCtx& ctx) -> Task<> {
          co_await ctx.fence_system();
          co_await ctx.store_system(trig, 1);
        };
        co_await n.rt().launch_sync(std::move(k));
      }(a, src, dst, flag),
      "host");
  sim.run();

  std::string json = trace.to_json();
  EXPECT_NE(json.find("node0.gpu"), std::string::npos);
  EXPECT_NE(json.find("node0.nic"), std::string::npos);
  EXPECT_NE(json.find("node0.trig"), std::string::npos);
  EXPECT_NE(json.find("node1.nic"), std::string::npos);
  EXPECT_NE(json.find(":launch"), std::string::npos);
  EXPECT_NE(json.find("tx:put"), std::string::npos);
  EXPECT_NE(json.find("FIRE"), std::string::npos);
  EXPECT_GT(trace.event_count(), 5u);
}

TEST(Trace, FlowEventsShareIdAndParse) {
  TraceRecorder t;
  t.span("gpu", "kernel", "gpu", us(1), us(2));
  t.span("nic", "deposit", "nic", us(3), us(4));
  t.flow_begin("gpu", "msg", "flow", us(1), 42);
  t.flow_step("nic", "msg", "flow", us(3), 42);
  t.flow_end("nic", "msg", "flow", us(3), 42);
  std::string json = t.to_json();

  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // The terminating flow event binds to the enclosing slice.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);

  auto parsed = test::json::parse(json);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_array());
  int flow_events = 0;
  for (const auto& e : *parsed->array) {
    std::string ph = e.at("ph").string;
    if (ph != "s" && ph != "t" && ph != "f") continue;
    ++flow_events;
    EXPECT_DOUBLE_EQ(e.at("id").number, 42.0);
    EXPECT_EQ(e.at("name").string, "msg");
  }
  EXPECT_EQ(flow_events, 3);
}

TEST(Trace, ArgsPassThroughAsJsonObject) {
  TraceRecorder t;
  t.span("lane", "msg", "net", 0, ns(10), "{\"flow\":7,\"bytes\":64}");
  auto parsed = test::json::parse(t.to_json());
  ASSERT_TRUE(parsed.has_value());
  bool found = false;
  for (const auto& e : *parsed->array) {
    if (!e.has("args") || !e.at("args").has("flow")) continue;
    found = true;
    EXPECT_DOUBLE_EQ(e.at("args").at("flow").number, 7.0);
    EXPECT_DOUBLE_EQ(e.at("args").at("bytes").number, 64.0);
  }
  EXPECT_TRUE(found);
}

TEST(Trace, LongNamesAreNotTruncated) {
  // The old serializer rendered each event through a fixed 512-byte
  // snprintf buffer; a longer name silently produced invalid JSON.
  TraceRecorder t;
  std::string name(2000, 'a');
  name += "END";
  t.span("lane", name, "cat", 0, ns(5));
  std::string json = t.to_json();
  EXPECT_NE(json.find(name), std::string::npos);
  auto parsed = test::json::parse(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->array->back().at("name").string, name);
}

TEST(Trace, StreamingWriterMatchesToJson) {
  TraceRecorder t;
  t.span("lane", "s", "c", us(1), us(2));
  t.instant("lane", "i", "c", us(3));
  t.flow_begin("lane", "m", "f", us(1), 9);
  std::ostringstream os;
  t.write_json(os);
  EXPECT_EQ(os.str(), t.to_json());
}

TEST(Trace, EmptyRecorderIsValidJson) {
  TraceRecorder t;
  auto parsed = test::json::parse(t.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_array());
  EXPECT_TRUE(parsed->array->empty());
}

TEST(Trace, WriteJsonCreatesFile) {
  TraceRecorder t;
  t.span("lane", "s", "c", 0, ns(10));
  std::string path = ::testing::TempDir() + "/gputn_trace_test.json";
  ASSERT_TRUE(t.write_json(path));
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char head[2] = {0, 0};
  ASSERT_EQ(std::fread(head, 1, 1, f), 1u);
  std::fclose(f);
  EXPECT_EQ(head[0], '[');
  std::remove(path.c_str());
}

TEST(TraceRecorder, WriteToFullDeviceFails) {
  // /dev/full opens fine and takes buffered bytes; the failure (ENOSPC)
  // only shows when they are flushed, so a check before the flush passes.
  if (FILE* probe = std::fopen("/dev/full", "w")) {
    std::fclose(probe);
  } else {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  TraceRecorder t;
  t.span("lane", "s", "c", 0, ns(10));
  EXPECT_FALSE(t.write_json("/dev/full"));
}

}  // namespace
}  // namespace gputn::sim
