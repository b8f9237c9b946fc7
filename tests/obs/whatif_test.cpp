// Causal what-if profiler: the knob registry must cover the advertised
// hardware surface, the counterfactual matrix must be bit-identical at any
// --jobs value, on an idle star fabric the wire-latency knob's measured
// delta must equal the blame-model prediction EXACTLY (integer
// picoseconds), inert knobs must be detected instead of burning runs, and
// the JSON report must round-trip with a clean self-diff while a tampered
// baseline is flagged.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/config.hpp"
#include "obs/whatif.hpp"
#include "sim/units.hpp"
#include "workloads/registry.hpp"

namespace gputn::obs {
namespace {

workloads::Registry& reg() {
  static workloads::Registry r = [] {
    workloads::Registry reg;
    workloads::register_builtin_workloads(reg);
    return reg;
  }();
  return r;
}

// One shared full-matrix profile of microbench (CPU + GPU-TN, default
// scales, jobs 2): several tests read it, so compute it once.
const WhatifReport& full_report() {
  static const WhatifReport rep = [] {
    WhatifOptions opt;
    opt.jobs = 2;
    return run_whatif(reg(), "microbench", workloads::WorkloadParams{},
                      workloads::RunOptions{}, cluster::SystemConfig::table2(),
                      opt);
  }();
  return rep;
}

const KnobResult* find_knob(const StrategyReport& sr,
                            const std::string& name) {
  for (const KnobResult& k : sr.knobs)
    if (k.name == name) return &k;
  return nullptr;
}

TEST(Whatif, RegistryCoversIssueKnobs) {
  // The advertised counterfactual surface: link bandwidth/latency, switch
  // latency/credits, NIC command rate, DMA bandwidth, host post cost,
  // trigger-table latency, doorbell latency/batch, GPU CU count.
  std::vector<std::string> names;
  for (const Knob& k : knob_registry()) {
    names.push_back(k.name);
    EXPECT_TRUE(k.kind == "cost" || k.kind == "capacity") << k.name;
    EXPECT_TRUE(static_cast<bool>(k.apply)) << k.name;
    EXPECT_FALSE(k.description.empty()) << k.name;
  }
  for (const char* want :
       {"link_bw", "link_lat", "switch_lat", "switch_credits", "nic_cmd_rate",
        "dma_bw", "host_post", "trigger", "doorbell", "doorbell_batch",
        "gpu_cus"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << "missing knob " << want;
  }
}

TEST(Whatif, BitIdenticalAcrossJobs) {
  // The acceptance bar: the full matrix through exp::Runner is
  // bit-identical at --jobs 1, 2, and 4 (full_report ran at 2).
  const std::string at2 = whatif_json(full_report());
  for (int jobs : {1, 4}) {
    WhatifOptions opt;
    opt.jobs = jobs;
    WhatifReport rep =
        run_whatif(reg(), "microbench", workloads::WorkloadParams{},
                   workloads::RunOptions{}, cluster::SystemConfig::table2(),
                   opt);
    EXPECT_EQ(whatif_json(rep), at2) << "jobs=" << jobs;
  }
}

TEST(Whatif, WireKnobExactOnIdleStar) {
  // The cross-validation headline, made airtight: on an idle star fabric
  // the link-latency knob's measured end-to-end delta equals the blame
  // model's prediction EXACTLY, in integer picoseconds. Completion
  // detection is quantized by polling (CPU 60 ns, GPU 100 ns), so the
  // link latency is set to their lcm (300 ns): every counterfactual shift
  // is then a multiple of both poll periods and survives quantization.
  cluster::SystemConfig sys = cluster::SystemConfig::table2();
  sys.fabric.link_latency = sim::ns(300);
  WhatifOptions opt;
  opt.strategies = {workloads::Strategy::kGpuTn};
  opt.knobs = {"link_lat"};
  opt.scales = {2.0, kInfiniteSpeed};
  opt.curve = false;
  opt.jobs = 2;
  WhatifReport rep = run_whatif(reg(), "microbench",
                                workloads::WorkloadParams{},
                                workloads::RunOptions{}, sys, opt);
  ASSERT_EQ(rep.strategies.size(), 1u);
  const StrategyReport& sr = rep.strategies[0];
  ASSERT_TRUE(sr.baseline_ok) << sr.baseline_error;
  const KnobResult* k = find_knob(sr, "link_lat");
  ASSERT_NE(k, nullptr);
  ASSERT_FALSE(k->inert);
  ASSERT_GT(k->predicted_blame_ps, 0);
  // At 2x the measured improvement IS the blame prediction — not just
  // within tolerance, equal.
  EXPECT_EQ(k->measured_ps, k->predicted_ps);
  EXPECT_EQ(k->verdict, "match");
  // And at infinite speed the whole attributed time is recovered.
  EXPECT_EQ(k->ideal_ps, k->predicted_blame_ps);
}

TEST(Whatif, InertAndSkippedKnobs) {
  // switch_credits: the default config runs unlimited credits (0), so the
  // knob must be inert at every scale instead of burning runs.
  // doorbell_batch: rewrites a serve-only parameter, inert elsewhere.
  // gpu_cus: refuses downscales (a smaller CU budget can livelock a
  // persistent kernel) — the 0.5x point is skipped but the knob still
  // profiles the accelerating scales.
  for (const StrategyReport& sr : full_report().strategies) {
    const KnobResult* credits = find_knob(sr, "switch_credits");
    ASSERT_NE(credits, nullptr);
    EXPECT_TRUE(credits->inert) << sr.strategy;
    EXPECT_TRUE(credits->points.empty()) << sr.strategy;

    const KnobResult* batch = find_knob(sr, "doorbell_batch");
    ASSERT_NE(batch, nullptr);
    EXPECT_TRUE(batch->inert) << sr.strategy;

    const KnobResult* cus = find_knob(sr, "gpu_cus");
    ASSERT_NE(cus, nullptr);
    EXPECT_FALSE(cus->inert) << sr.strategy;
    for (const WhatifPoint& p : cus->points)
      EXPECT_GT(p.scale, 1.0) << sr.strategy;

    // Inert knobs never appear in the causal ranking.
    for (const std::string& name : sr.ranking) {
      EXPECT_NE(name, "switch_credits") << sr.strategy;
      EXPECT_NE(name, "doorbell_batch") << sr.strategy;
    }
  }
}

TEST(Whatif, CpuHostPostIsUnattributedHeadline) {
  // The cross-check's reason to exist: the CPU proxy's biggest causal win
  // is the host posting cost, which the blame taxonomy cannot see (it
  // stamps NIC-visible stages only) — flagged "unattributed", counted as
  // a divergence.
  const StrategyReport* cpu = nullptr;
  for (const StrategyReport& sr : full_report().strategies)
    if (sr.strategy == "CPU") cpu = &sr;
  ASSERT_NE(cpu, nullptr);
  ASSERT_TRUE(cpu->baseline_ok);
  const KnobResult* hp = find_knob(*cpu, "host_post");
  ASSERT_NE(hp, nullptr);
  EXPECT_EQ(hp->verdict, "unattributed");
  EXPECT_GT(hp->measured_ps, 0);
  EXPECT_EQ(hp->predicted_ps, 0);
  EXPECT_GT(cpu->divergences, 0);
}

TEST(Whatif, JsonRoundTripAndSelfDiff) {
  const WhatifReport& rep = full_report();
  const std::string json = whatif_json(rep);
  WhatifReport back = parse_whatif(json, "test");
  // The round-trip is lossless for everything the diff gate reads.
  EXPECT_EQ(whatif_json(back), json);
  WhatifDiff d = diff_whatif(rep, back, 5.0);
  EXPECT_EQ(d.regressions, 0) << d.text;
}

TEST(Whatif, DiffFlagsTopKnobChangeAndBaselineShift) {
  const WhatifReport& rep = full_report();
  WhatifReport tampered = parse_whatif(whatif_json(rep), "test");
  ASSERT_FALSE(tampered.strategies.empty());
  StrategyReport& sr = tampered.strategies[0];
  ASSERT_GE(sr.ranking.size(), 2u);
  std::swap(sr.ranking[0], sr.ranking[1]);
  sr.baseline_ps = sr.baseline_ps * 2;
  WhatifDiff d = diff_whatif(rep, tampered, 5.0);
  EXPECT_GE(d.regressions, 2) << d.text;
}

TEST(Whatif, MalformedAndInvalidInputsThrow) {
  EXPECT_THROW(parse_whatif("{not json", "bad.json"), std::runtime_error);
  EXPECT_THROW(parse_whatif("{\"no\": \"marker\"}", "bad.json"),
               std::runtime_error);

  WhatifOptions opt;
  EXPECT_THROW(run_whatif(reg(), "nope", workloads::WorkloadParams{},
                          workloads::RunOptions{},
                          cluster::SystemConfig::table2(), opt),
               std::invalid_argument);

  WhatifOptions bad_knob;
  bad_knob.knobs = {"warp_speed"};
  EXPECT_THROW(run_whatif(reg(), "microbench", workloads::WorkloadParams{},
                          workloads::RunOptions{},
                          cluster::SystemConfig::table2(), bad_knob),
               std::invalid_argument);

  // The profiler drives strategies itself; a "strategy" workload
  // parameter would silently pin every run to one strategy.
  workloads::WorkloadParams p;
  p.set("strategy", "CPU");
  EXPECT_THROW(run_whatif(reg(), "microbench", p, workloads::RunOptions{},
                          cluster::SystemConfig::table2(), opt),
               std::invalid_argument);
}

TEST(Whatif, RefusesWorkloadThatTakesNoStrategy) {
  // broadcast picks what runs with --drive: every strategy section would
  // be the same run, so the profiler refuses it before running anything.
  WhatifOptions opt;
  workloads::RunOptions run;
  run.nodes = 4;
  try {
    run_whatif(reg(), "broadcast", workloads::WorkloadParams{}, run,
               cluster::SystemConfig::table2(), opt);
    ADD_FAILURE() << "whatif ran broadcast";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--drive"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace gputn::obs
