#include "obs/whatif.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "exp/plan.hpp"
#include "exp/runner.hpp"
#include "net/wire.hpp"
#include "obs/critical.hpp"
#include "obs/flight.hpp"
#include "sim/json.hpp"
#include "sim/units.hpp"

namespace gputn::obs {

namespace json = ::gputn::sim::json;

namespace {

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

/// Scale as a stable token: "0.5" / "2" / "1.25" / "inf". Used in point
/// ids, the JSON, and the render, so all three agree.
std::string fmt_scale(double s) {
  if (std::isinf(s)) return "inf";
  return fmt("%g", s);
}

double parse_scale(const std::string& tok) {
  if (tok == "inf") return kInfiniteSpeed;
  return std::strtod(tok.c_str(), nullptr);
}

/// Cost knob at speed s: new = old / s (s = inf -> free).
sim::Tick scale_cost(sim::Tick t, double s) {
  if (std::isinf(s)) return 0;
  return static_cast<sim::Tick>(
      std::llround(static_cast<double>(t) / s));
}

/// Capacity knob at speed s: new rate = old * s (s = inf -> effectively
/// unlimited; 1e18 B/s serializes a 4 KiB message in under a picosecond).
sim::Bandwidth scale_bw(sim::Bandwidth b, double s) {
  if (std::isinf(s)) return sim::Bandwidth::bytes_per_sec(1e18);
  return sim::Bandwidth::bytes_per_sec(b.bytes_per_second() * s);
}

}  // namespace

const std::vector<Knob>& knob_registry() {
  static const std::vector<Knob> kKnobs = [] {
    std::vector<Knob> v;
    using workloads::WorkloadParams;
    using Cfg = cluster::SystemConfig;

    v.push_back(Knob{
        "link_bw", "capacity", "fabric link bandwidth",
        [](Cfg& c, WorkloadParams&, double s) {
          c.fabric.bandwidth = scale_bw(c.fabric.bandwidth, s);
          return true;
        },
        {},
        WirePart::kSerialization,
        "link.",
        {}});
    v.push_back(Knob{
        "link_lat", "cost", "fabric link propagation latency",
        [](Cfg& c, WorkloadParams&, double s) {
          if (c.fabric.link_latency <= 0) return false;
          c.fabric.link_latency = scale_cost(c.fabric.link_latency, s);
          return true;
        },
        {},
        WirePart::kLinkLatency,
        "",
        {}});
    v.push_back(Knob{
        "switch_lat", "cost", "switch crossbar latency",
        [](Cfg& c, WorkloadParams&, double s) {
          if (c.fabric.switch_latency <= 0) return false;
          c.fabric.switch_latency = scale_cost(c.fabric.switch_latency, s);
          return true;
        },
        {},
        WirePart::kSwitchLatency,
        "",
        {}});
    v.push_back(Knob{
        "switch_credits", "capacity", "switch output-port credits",
        [](Cfg& c, WorkloadParams&, double s) {
          // 0 already means unlimited — nothing to speed up.
          if (c.fabric.credits_per_port <= 0) return false;
          if (std::isinf(s)) {
            c.fabric.credits_per_port = 0;
          } else {
            c.fabric.credits_per_port = std::max(
                1, static_cast<int>(
                       std::llround(c.fabric.credits_per_port * s)));
          }
          return true;
        },
        {"switch_queue"},
        WirePart::kNone,
        "sw.",
        {}});
    v.push_back(Knob{
        "nic_cmd_rate", "capacity", "NIC command-pipeline fetch rate",
        [](Cfg& c, WorkloadParams&, double s) {
          if (c.nic.cmd_fetch <= 0) return false;
          c.nic.cmd_fetch = scale_cost(c.nic.cmd_fetch, s);
          return true;
        },
        {"cmd_queue"},
        WirePart::kNone,
        "nic.cmd",
        {}});
    v.push_back(Knob{
        "dma_bw", "capacity", "NIC DMA engine bandwidth",
        [](Cfg& c, WorkloadParams&, double s) {
          c.nic.dma_bandwidth = scale_bw(c.nic.dma_bandwidth, s);
          c.nic.dma_startup = scale_cost(c.nic.dma_startup, s);
          return true;
        },
        {"tx_proc", "deposit"},
        WirePart::kNone,
        "dma.",
        {}});
    v.push_back(Knob{
        "host_post", "cost", "host software post / network-stack cost",
        [](Cfg& c, WorkloadParams&, double s) {
          if (c.cpu.post_cost <= 0 && c.cpu.send_stack_cost <= 0 &&
              c.cpu.recv_stack_cost <= 0) {
            return false;
          }
          c.cpu.post_cost = scale_cost(c.cpu.post_cost, s);
          c.cpu.send_stack_cost = scale_cost(c.cpu.send_stack_cost, s);
          c.cpu.recv_stack_cost = scale_cost(c.cpu.recv_stack_cost, s);
          return true;
        },
        // Deliberately empty: host software time between ops is invisible
        // to the per-op blame taxonomy — the cross-check surfaces it as
        // "unattributed", which is the paper's CPU-proxy story.
        {},
        WirePart::kNone,
        ".cpu",
        {}});
    v.push_back(Knob{
        "trigger", "cost", "trigger-table scan / fire latency",
        [](Cfg& c, WorkloadParams&, double s) {
          c.triggered.update_cost = scale_cost(c.triggered.update_cost, s);
          c.triggered.dynamic_decode_cost =
              scale_cost(c.triggered.dynamic_decode_cost, s);
          c.triggered.table.associative_cost =
              scale_cost(c.triggered.table.associative_cost, s);
          c.triggered.table.hash_cost =
              scale_cost(c.triggered.table.hash_cost, s);
          c.triggered.table.list_hop_cost =
              scale_cost(c.triggered.table.list_hop_cost, s);
          return true;
        },
        {"trigger_wait"},
        WirePart::kNone,
        "",
        {}});
    v.push_back(Knob{
        "doorbell", "cost", "doorbell ring-to-visible latency",
        [](Cfg& c, WorkloadParams&, double s) {
          if (c.nic.doorbell_latency <= 0 &&
              c.gpu.gds_doorbell_latency <= 0) {
            return false;
          }
          c.nic.doorbell_latency = scale_cost(c.nic.doorbell_latency, s);
          c.gpu.gds_doorbell_latency =
              scale_cost(c.gpu.gds_doorbell_latency, s);
          return true;
        },
        {"doorbell"},
        WirePart::kNone,
        "",
        {}});
    v.push_back(Knob{
        "doorbell_batch", "capacity", "QP doorbell batch size (serve)",
        [](Cfg&, WorkloadParams& p, double s) {
          long old = p.get_int("batch", 4, 1, 1024);
          long next = std::isinf(s)
                          ? 1024
                          : std::clamp<long>(std::lround(old * s), 1, 1024);
          if (next == old) return false;
          p.set("batch", std::to_string(next));
          return true;
        },
        {"qp_batch"},
        WirePart::kNone,
        "",
        {"serve"}});
    v.push_back(Knob{
        "gpu_cus", "capacity", "GPU compute-unit count",
        [](Cfg& c, WorkloadParams&, double s) {
          // Upscale only: persistent kernels size their launch for the
          // baseline CU budget, and a grid larger than cu_count *
          // max_wgs_per_cu that synchronizes across work-groups livelocks
          // (GpuConfig's documented constraint): its resident work-groups
          // spin on flags only unscheduled ones would set, the event queue
          // drains, and the run fails as deadlocked.
          if (s < 1.0) return false;
          int old = c.gpu.cu_count;
          double eff = std::isinf(s) ? 64.0 : s;
          c.gpu.cu_count =
              std::max(1, static_cast<int>(std::llround(old * eff)));
          if (c.gpu.cu_count == old) return false;
          // A bigger GPU, not a starved one: the model shares
          // mem_bandwidth across CUs, so co-scale it to keep the per-CU
          // slice constant.
          c.gpu.mem_bandwidth = scale_bw(
              c.gpu.mem_bandwidth,
              static_cast<double>(c.gpu.cu_count) / old);
          return true;
        },
        {},
        WirePart::kNone,
        "gpu.cu",
        {}});
    return v;
  }();
  return kKnobs;
}

namespace {

// ---- baseline attribution --------------------------------------------------

/// Blame totals over the baseline's recorded ops: per-category sums plus
/// the blamed wire time split into the three wire-knob slices
/// (serialization / link propagation / switch crossbar).
struct BlameTotals {
  std::map<std::string, std::int64_t> cats;
  net::IdealWire wire;
};

/// Split one leg's blamed wire time into net::ideal_wire's parts. On an
/// uncongested fabric (blamed == ideal) they are exact; when congestion
/// clamps the blamed wire below ideal, the parts are scaled proportionally
/// and still sum to the blamed time.
void leg_wire_parts(const FlightLeg& l, const net::WireParams& w,
                    BlameTotals& bt) {
  if (l.t_wire < 0 || l.t_rx <= l.t_wire) return;
  net::IdealWire p = net::ideal_wire(w, l.bytes, l.hops);
  std::int64_t ideal = p.total();
  std::int64_t blamed = std::min(l.t_rx - l.t_wire, ideal);
  if (ideal > 0 && blamed < ideal) {
    double f = static_cast<double>(blamed) / static_cast<double>(ideal);
    p.serialization = std::llround(static_cast<double>(p.serialization) * f);
    p.link = std::llround(static_cast<double>(p.link) * f);
    p.switching = blamed - p.serialization - p.link;
  }
  bt.wire.serialization += p.serialization;
  bt.wire.link += p.link;
  bt.wire.switching += p.switching;
}

BlameTotals blame_totals(const AnalyzedRun& run) {
  BlameTotals bt;
  for (const OpRecord& op : run.ops) {
    for (const auto& [cat, ps] : blame_op(op, run.wire)) bt.cats[cat] += ps;
    leg_wire_parts(op.req, run.wire, bt);
    if (op.has_resp()) leg_wire_parts(op.resp, run.wire, bt);
  }
  return bt;
}

/// The knob's attributed critical-path picoseconds under the blame model.
std::int64_t knob_blame_ps(const Knob& k, const BlameTotals& bt,
                           double sample_factor) {
  std::int64_t ps = 0;
  for (const std::string& cat : k.blame_categories) {
    auto it = bt.cats.find(cat);
    if (it != bt.cats.end()) ps += it->second;
  }
  switch (k.wire_part) {
    case WirePart::kSerialization: ps += bt.wire.serialization; break;
    case WirePart::kLinkLatency: ps += bt.wire.link; break;
    case WirePart::kSwitchLatency: ps += bt.wire.switching; break;
    case WirePart::kNone: break;
  }
  if (sample_factor > 1.0) {
    ps = std::llround(static_cast<double>(ps) * sample_factor);
  }
  return ps;
}

/// Busiest matching util.* resource's effective busy time (busy integral
/// normalized by unit capacity) — the PR 5 predictor.
std::int64_t knob_busy_ps(const sim::StatRegistry& st,
                          const std::string& pattern) {
  if (pattern.empty()) return 0;
  std::int64_t best = 0;
  const std::string suffix = ".busy_ps";
  for (const auto& [name, value] : st.counters()) {
    if (name.rfind("util.", 0) != 0) continue;
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    std::string resource = name.substr(0, name.size() - suffix.size());
    if (resource.find(pattern) == std::string::npos) continue;
    std::uint64_t cap = st.counter_value(resource + ".capacity");
    if (cap == 0) cap = 1;
    best = std::max(best, static_cast<std::int64_t>(value / cap));
  }
  return best;
}

// ---- plan bookkeeping ------------------------------------------------------

struct PointRef {
  double scale = 1.0;
  std::size_t idx = 0;
};

struct KnobPlan {
  const Knob* knob = nullptr;
  bool inert = false;
  std::vector<PointRef> points;
};

struct StrategyPlan {
  workloads::Strategy st{};
  std::size_t baseline_idx = 0;
  std::unique_ptr<FlightRecorder> recorder;
  std::vector<KnobPlan> knobs;
};

bool workload_allowed(const Knob& k, const std::string& workload) {
  if (k.only_workloads.empty()) return true;
  for (const std::string& w : k.only_workloads) {
    if (w == workload) return true;
  }
  return false;
}

std::int64_t improvement(std::int64_t baseline_ps, const WhatifPoint& p) {
  return p.ok ? baseline_ps - p.total_ps : 0;
}

/// Predicted improvement at speed s from `attributed` baseline-critical
/// picoseconds, clamped so a prediction never exceeds the whole baseline.
std::int64_t predict_at(std::int64_t attributed, std::int64_t baseline_ps,
                        double s) {
  std::int64_t a = std::min(attributed, baseline_ps);
  if (std::isinf(s)) return a;
  return std::llround(static_cast<double>(a) * (1.0 - 1.0 / s));
}

}  // namespace

WhatifReport run_whatif(const workloads::Registry& reg,
                        const std::string& workload,
                        const workloads::WorkloadParams& params,
                        const workloads::RunOptions& base_opts,
                        const cluster::SystemConfig& sys,
                        const WhatifOptions& opt) {
  const workloads::WorkloadEntry* entry = reg.find(workload);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  if (!entry->takes_strategy) {
    // Every strategy would run the same thing: refuse before any run.
    throw std::invalid_argument("whatif compares strategies, and " +
                                workload + " takes none (it takes " +
                                entry->options_help + ")");
  }
  if (params.has("strategy")) {
    throw std::invalid_argument(
        "whatif drives strategies itself; use --strategies, not --strategy");
  }
  if (opt.strategies.empty()) {
    throw std::invalid_argument("whatif needs at least one strategy");
  }
  if (opt.scales.empty()) {
    throw std::invalid_argument("whatif needs at least one --scales value");
  }
  for (double s : opt.scales) {
    if (!(s > 0.0)) {
      throw std::invalid_argument("--scales values must be > 0 (or inf)");
    }
  }

  // Resolve the knob subset up front so a typo fails before any run.
  const std::vector<Knob>& all = knob_registry();
  std::vector<const Knob*> knobs;
  if (opt.knobs.empty()) {
    for (const Knob& k : all) knobs.push_back(&k);
  } else {
    for (const std::string& name : opt.knobs) {
      const Knob* found = nullptr;
      for (const Knob& k : all) {
        if (k.name == name) found = &k;
      }
      if (found == nullptr) {
        throw std::invalid_argument("unknown knob: " + name +
                                    " (see `gputn config` for the registry)");
      }
      knobs.push_back(found);
    }
  }

  workloads::RunOptions opts = base_opts;
  opts.quiet = true;
  opts.trace = nullptr;
  opts.timeseries = nullptr;
  opts.flight = nullptr;

  // ---- phase 1: baseline + counterfactual matrix -------------------------
  exp::Plan plan;
  std::vector<StrategyPlan> splans;
  for (workloads::Strategy st : opt.strategies) {
    StrategyPlan sp;
    sp.st = st;
    std::string sname = workloads::strategy_name(st);
    workloads::RunOptions st_opts = opts;
    st_opts.strategy = st;

    FlightConfig fc;
    fc.capacity = 65536;
    fc.sample_period = 1;
    sp.recorder = std::make_unique<FlightRecorder>(fc);
    workloads::RunOptions base_run = st_opts;
    base_run.flight = sp.recorder.get();
    sp.baseline_idx = plan.add_workload(reg, sname + "/baseline", workload,
                                        base_run, params, sys);

    for (const Knob* k : knobs) {
      KnobPlan kp;
      kp.knob = k;
      if (!workload_allowed(*k, workload)) {
        kp.inert = true;
        sp.knobs.push_back(std::move(kp));
        continue;
      }
      for (double s : opt.scales) {
        cluster::SystemConfig ksys = sys;
        workloads::WorkloadParams kparams = params;
        // apply() == false skips just this scale-point (e.g. gpu_cus
        // refuses downscales). The knob is inert only when no scale
        // produced a point (e.g. credits already unlimited at every s).
        if (!k->apply(ksys, kparams, s)) continue;
        std::size_t idx = plan.add_workload(
            reg, sname + "/" + k->name + "/x" + fmt_scale(s), workload,
            st_opts, kparams, ksys);
        kp.points.push_back(PointRef{s, idx});
      }
      kp.inert = kp.points.empty();
      sp.knobs.push_back(std::move(kp));
    }
    splans.push_back(std::move(sp));
  }

  exp::Runner runner(opt.jobs);
  exp::RunSummary summary = runner.run(plan);

  // ---- assemble per-strategy reports -------------------------------------
  WhatifReport rep;
  rep.workload = workload;
  rep.tolerance_pct = opt.tolerance_pct;
  for (StrategyPlan& sp : splans) {
    StrategyReport sr;
    sr.strategy = workloads::strategy_name(sp.st);
    const exp::RunResult& base = summary.results[sp.baseline_idx];
    sr.baseline_ok = base.ok;
    sr.baseline_error = base.error;
    sr.baseline_ps = base.ok ? static_cast<std::int64_t>(
                                   base.result.total_time)
                             : 0;

    BlameTotals bt;
    double sample_factor = 1.0;
    if (base.ok) {
      Analysis a = analyze_flight(sp.recorder->json(), "baseline");
      if (!a.runs.empty()) {
        const AnalyzedRun& run = a.runs.front();
        sr.ops_offered = run.offered;
        sr.ops_recorded = run.recorded;
        bt = blame_totals(run);
        if (run.recorded > 0 && run.offered > run.recorded) {
          sample_factor = static_cast<double>(run.offered) /
                          static_cast<double>(run.recorded);
        }
      }
    }

    // Cross-check scale: 2x when run, else the smallest finite speedup.
    double vscale = 0.0;
    for (double s : opt.scales) {
      if (std::isinf(s) || s <= 1.0) continue;
      if (s == 2.0) {
        vscale = 2.0;
        break;
      }
      if (vscale == 0.0 || s < vscale) vscale = s;
    }
    std::int64_t tol_ps = std::llround(static_cast<double>(sr.baseline_ps) *
                                       opt.tolerance_pct / 100.0);

    for (const KnobPlan& kp : sp.knobs) {
      KnobResult kr;
      kr.name = kp.knob->name;
      kr.kind = kp.knob->kind;
      kr.inert = kp.inert;
      if (kp.inert) {
        kr.verdict = "inert";
        sr.knobs.push_back(std::move(kr));
        continue;
      }
      for (const PointRef& pr : kp.points) {
        const exp::RunResult& r = summary.results[pr.idx];
        WhatifPoint pt;
        pt.scale = pr.scale;
        pt.ok = r.ok;
        pt.error = r.error;
        pt.total_ps =
            r.ok ? static_cast<std::int64_t>(r.result.total_time) : 0;
        kr.points.push_back(std::move(pt));
      }
      if (sr.baseline_ok) {
        std::int64_t fastest = sr.baseline_ps;
        std::int64_t slowest = sr.baseline_ps;
        for (const WhatifPoint& pt : kr.points) {
          if (!pt.ok) continue;
          fastest = std::min(fastest, pt.total_ps);
          slowest = std::max(slowest, pt.total_ps);
          std::int64_t imp = improvement(sr.baseline_ps, pt);
          if (pt.scale == 2.0) kr.improve2x_ps = imp;
          if (std::isinf(pt.scale)) kr.ideal_ps = imp;
          if (pt.scale > 1.0) {
            kr.best_improve_ps = std::max(kr.best_improve_ps, imp);
          }
        }
        if (sr.baseline_ps > 0) {
          kr.swing_pct = 100.0 * static_cast<double>(slowest - fastest) /
                         static_cast<double>(sr.baseline_ps);
        }
        kr.predicted_blame_ps = knob_blame_ps(*kp.knob, bt, sample_factor);
        kr.predicted_busy_ps = knob_busy_ps(base.result.net_stats,
                                            kp.knob->busy_pattern);

        // Verdict at the cross-check scale.
        const WhatifPoint* vp = nullptr;
        for (const WhatifPoint& pt : kr.points) {
          if (pt.ok && pt.scale == vscale) vp = &pt;
        }
        if (vp != nullptr) {
          kr.measured_ps = improvement(sr.baseline_ps, *vp);
          kr.predicted_ps =
              predict_at(kr.predicted_blame_ps, sr.baseline_ps, vscale);
          if (kr.predicted_ps <= tol_ps && kr.measured_ps > tol_ps) {
            kr.verdict = "unattributed";
          } else if (kr.measured_ps > kr.predicted_ps + tol_ps) {
            kr.verdict = "queueing";
          } else if (kr.measured_ps < kr.predicted_ps - tol_ps) {
            kr.verdict = "overlapped";
          } else {
            kr.verdict = "match";
          }
        }
      }
      sr.knobs.push_back(std::move(kr));
    }

    // Ranking: biggest causal win first; inert knobs are excluded.
    for (const KnobResult& kr : sr.knobs) {
      if (!kr.inert) sr.ranking.push_back(kr.name);
    }
    auto key = [&](const std::string& name) -> const KnobResult* {
      for (const KnobResult& kr : sr.knobs) {
        if (kr.name == name) return &kr;
      }
      return nullptr;
    };
    std::sort(sr.ranking.begin(), sr.ranking.end(),
              [&](const std::string& a, const std::string& b) {
                const KnobResult* ka = key(a);
                const KnobResult* kb = key(b);
                if (ka->ideal_ps != kb->ideal_ps) {
                  return ka->ideal_ps > kb->ideal_ps;
                }
                if (ka->improve2x_ps != kb->improve2x_ps) {
                  return ka->improve2x_ps > kb->improve2x_ps;
                }
                if (ka->best_improve_ps != kb->best_improve_ps) {
                  return ka->best_improve_ps > kb->best_improve_ps;
                }
                return a < b;
              });
    for (const KnobResult& kr : sr.knobs) {
      if (kr.verdict == "queueing" || kr.verdict == "overlapped" ||
          kr.verdict == "unattributed") {
        ++sr.divergences;
      }
    }
    rep.strategies.push_back(std::move(sr));
  }

  // ---- phase 2: virtual-speedup curve for each strategy's top knob -------
  if (opt.curve) {
    static const double kCurveScales[] = {1.25, 1.5, 4.0, 8.0};
    exp::Plan curve_plan;
    struct CurveRef {
      std::size_t strategy = 0;
      std::vector<PointRef> points;
    };
    std::vector<CurveRef> crefs;
    for (std::size_t si = 0; si < rep.strategies.size(); ++si) {
      StrategyReport& sr = rep.strategies[si];
      if (!sr.baseline_ok || sr.ranking.empty()) continue;
      const Knob* top = nullptr;
      for (const Knob& k : all) {
        if (k.name == sr.ranking.front()) top = &k;
      }
      if (top == nullptr) continue;
      CurveRef cr;
      cr.strategy = si;
      workloads::RunOptions st_opts = opts;
      st_opts.strategy = splans[si].st;
      for (double s : kCurveScales) {
        cluster::SystemConfig ksys = sys;
        workloads::WorkloadParams kparams = params;
        if (!top->apply(ksys, kparams, s)) continue;
        std::size_t idx = curve_plan.add_workload(
            reg,
            sr.strategy + "/curve/" + top->name + "/x" + fmt_scale(s),
            workload, st_opts, kparams, ksys);
        cr.points.push_back(PointRef{s, idx});
      }
      if (!cr.points.empty()) {
        sr.curve_knob = top->name;
        crefs.push_back(std::move(cr));
      }
    }
    if (!curve_plan.empty()) {
      exp::RunSummary csum = runner.run(curve_plan);
      for (const CurveRef& cr : crefs) {
        StrategyReport& sr = rep.strategies[cr.strategy];
        for (const PointRef& pr : cr.points) {
          const exp::RunResult& r = csum.results[pr.idx];
          WhatifPoint pt;
          pt.scale = pr.scale;
          pt.ok = r.ok;
          pt.error = r.error;
          pt.total_ps =
              r.ok ? static_cast<std::int64_t>(r.result.total_time) : 0;
          sr.curve.push_back(std::move(pt));
        }
      }
    }
  }
  return rep;
}

// ---- render ---------------------------------------------------------------

namespace {

std::string us(std::int64_t ps) {
  return fmt("%.3f", static_cast<double>(ps) / 1e6);
}

const KnobResult* find_knob(const StrategyReport& sr,
                            const std::string& name) {
  for (const KnobResult& kr : sr.knobs) {
    if (kr.name == name) return &kr;
  }
  return nullptr;
}

}  // namespace

std::string render_whatif(const WhatifReport& rep, const WhatifOptions& opt) {
  std::string out = "whatif: " + rep.workload + "  (tolerance " +
                    fmt("%.1f", rep.tolerance_pct) + "% of baseline)\n";
  for (const StrategyReport& sr : rep.strategies) {
    out += "\n== strategy " + sr.strategy + ": ";
    if (!sr.baseline_ok) {
      out += "BASELINE FAILED: " + sr.baseline_error + "\n";
      continue;
    }
    out += "baseline " + us(sr.baseline_ps) + " us, ops " +
           std::to_string(sr.ops_recorded) + "/" +
           std::to_string(sr.ops_offered) + " recorded\n";
    out +=
        "  rank  knob            kind       ideal_us   meas@2x_us"
        "   pred@2x_us    busy_us  verdict\n";
    std::size_t shown = 0;
    for (std::size_t i = 0; i < sr.ranking.size(); ++i) {
      if (opt.top > 0 && static_cast<int>(i) >= opt.top) break;
      const KnobResult* kr = find_knob(sr, sr.ranking[i]);
      if (kr == nullptr) continue;
      char line[200];
      std::snprintf(line, sizeof(line),
                    "  %4zu  %-14s  %-8s %10s %12s %12s %10s  %s\n", i + 1,
                    kr->name.c_str(), kr->kind.c_str(),
                    us(kr->ideal_ps).c_str(), us(kr->measured_ps).c_str(),
                    us(kr->predicted_ps).c_str(),
                    us(kr->predicted_busy_ps).c_str(), kr->verdict.c_str());
      out += line;
      ++shown;
    }
    if (opt.top > 0 && sr.ranking.size() > static_cast<std::size_t>(opt.top)) {
      out += "  ... " + std::to_string(sr.ranking.size() - shown) +
             " more knobs (--top)\n";
    }
    std::string inert;
    for (const KnobResult& kr : sr.knobs) {
      if (!kr.inert) continue;
      if (!inert.empty()) inert += ", ";
      inert += kr.name;
    }
    if (!inert.empty()) out += "  inert: " + inert + "\n";
    bool failed = false;
    for (const KnobResult& kr : sr.knobs) {
      for (const WhatifPoint& pt : kr.points) {
        if (!pt.ok && !failed) {
          out += "  failed points:";
          failed = true;
        }
        if (!pt.ok) out += " " + kr.name + "/x" + fmt_scale(pt.scale);
      }
    }
    if (failed) out += "\n";
    out += "  divergences: " + std::to_string(sr.divergences);
    if (sr.divergences > 0) {
      out += " (";
      bool first = true;
      for (const KnobResult& kr : sr.knobs) {
        if (kr.verdict != "queueing" && kr.verdict != "overlapped" &&
            kr.verdict != "unattributed") {
          continue;
        }
        if (!first) out += ", ";
        out += kr.name + " " + kr.verdict;
        first = false;
      }
      out += ")";
    }
    out += "\n";
    if (!sr.curve_knob.empty()) {
      out += "  virtual speedup [" + sr.curve_knob + "]:";
      for (const WhatifPoint& pt : sr.curve) {
        out += " x" + fmt_scale(pt.scale) + "=";
        if (!pt.ok) {
          out += "fail";
        } else if (sr.baseline_ps > 0) {
          out += fmt("%+.2f",
                     -100.0 *
                         static_cast<double>(sr.baseline_ps - pt.total_ps) /
                         static_cast<double>(sr.baseline_ps)) +
                 "%";
        } else {
          out += us(pt.total_ps);
        }
      }
      out += "\n";
    }
  }
  return out;
}

// ---- JSON -----------------------------------------------------------------

namespace {

std::string point_json(const WhatifPoint& pt) {
  std::string o = "{\"scale\":\"" + fmt_scale(pt.scale) + "\",\"ok\":";
  o += pt.ok ? "true" : "false";
  if (pt.ok) {
    o += ",\"total_ps\":" + std::to_string(pt.total_ps);
  } else {
    o += ",\"error\":\"" + sim::json_escape(pt.error) + "\"";
  }
  o += "}";
  return o;
}

}  // namespace

std::string whatif_json(const WhatifReport& rep) {
  std::string o = "{\n  \"whatif\": 1,\n  \"workload\": \"" +
                  sim::json_escape(rep.workload) + "\",\n";
  o += "  \"tolerance_pct\": " + fmt("%.4f", rep.tolerance_pct) + ",\n";
  o += "  \"strategies\": [";
  for (std::size_t si = 0; si < rep.strategies.size(); ++si) {
    const StrategyReport& sr = rep.strategies[si];
    o += si == 0 ? "\n" : ",\n";
    o += "    {\"strategy\": \"" + sim::json_escape(sr.strategy) + "\",\n";
    o += "     \"baseline_ok\": ";
    o += sr.baseline_ok ? "true" : "false";
    if (!sr.baseline_ok) {
      o += ",\n     \"baseline_error\": \"" +
           sim::json_escape(sr.baseline_error) + "\"";
    }
    o += ",\n     \"baseline_ps\": " + std::to_string(sr.baseline_ps);
    o += ",\n     \"ops_offered\": " + std::to_string(sr.ops_offered);
    o += ",\n     \"ops_recorded\": " + std::to_string(sr.ops_recorded);
    o += ",\n     \"knobs\": [";
    for (std::size_t ki = 0; ki < sr.knobs.size(); ++ki) {
      const KnobResult& kr = sr.knobs[ki];
      o += ki == 0 ? "\n" : ",\n";
      o += "      {\"name\":\"" + sim::json_escape(kr.name) + "\",\"kind\":\"" +
           kr.kind + "\",\"inert\":";
      o += kr.inert ? "true" : "false";
      o += ",\"points\":[";
      for (std::size_t pi = 0; pi < kr.points.size(); ++pi) {
        if (pi != 0) o += ",";
        o += point_json(kr.points[pi]);
      }
      o += "]";
      o += ",\"improve2x_ps\":" + std::to_string(kr.improve2x_ps);
      o += ",\"ideal_ps\":" + std::to_string(kr.ideal_ps);
      o += ",\"best_improve_ps\":" + std::to_string(kr.best_improve_ps);
      o += ",\"swing_pct\":" + fmt("%.4f", kr.swing_pct);
      o += ",\"predicted_blame_ps\":" + std::to_string(kr.predicted_blame_ps);
      o += ",\"predicted_busy_ps\":" + std::to_string(kr.predicted_busy_ps);
      o += ",\"measured_ps\":" + std::to_string(kr.measured_ps);
      o += ",\"predicted_ps\":" + std::to_string(kr.predicted_ps);
      o += ",\"verdict\":\"" + kr.verdict + "\"}";
    }
    o += "\n     ],\n     \"ranking\": [";
    for (std::size_t ri = 0; ri < sr.ranking.size(); ++ri) {
      if (ri != 0) o += ",";
      o += "\"" + sim::json_escape(sr.ranking[ri]) + "\"";
    }
    o += "],\n     \"divergences\": " + std::to_string(sr.divergences);
    o += ",\n     \"curve_knob\": \"" + sim::json_escape(sr.curve_knob) +
         "\",\n     \"curve\": [";
    for (std::size_t ci = 0; ci < sr.curve.size(); ++ci) {
      if (ci != 0) o += ",";
      o += point_json(sr.curve[ci]);
    }
    o += "]}";
  }
  o += "\n  ]\n}\n";
  return o;
}

// ---- parse ----------------------------------------------------------------

namespace {

[[noreturn]] void bad(const std::string& source, const std::string& what) {
  throw std::runtime_error(source + ": " + what);
}

double jnum(const json::Value& obj, const std::string& key,
            double dflt = 0.0) {
  if (!obj.has(key)) return dflt;
  const json::Value& v = obj.at(key);
  return v.is_number() ? v.number : dflt;
}

std::string jstr(const json::Value& obj, const std::string& key) {
  if (!obj.has(key)) return {};
  const json::Value& v = obj.at(key);
  return v.is_string() ? v.string : std::string();
}

bool jbool(const json::Value& obj, const std::string& key) {
  return obj.has(key) && obj.at(key).kind == json::Value::Kind::kBool &&
         obj.at(key).boolean;
}

std::int64_t jint(const json::Value& obj, const std::string& key) {
  return static_cast<std::int64_t>(jnum(obj, key));
}

WhatifPoint parse_point(const json::Value& v) {
  WhatifPoint pt;
  pt.scale = parse_scale(jstr(v, "scale"));
  pt.ok = jbool(v, "ok");
  pt.total_ps = jint(v, "total_ps");
  pt.error = jstr(v, "error");
  return pt;
}

}  // namespace

WhatifReport parse_whatif(const std::string& json_text,
                          const std::string& source) {
  json::Value doc;
  try {
    doc = json::parse(json_text);
  } catch (const std::runtime_error& e) {
    bad(source, e.what());
  }
  if (!doc.is_object() || !doc.has("whatif")) {
    bad(source, "not a whatif report (no \"whatif\" marker)");
  }
  WhatifReport rep;
  rep.workload = jstr(doc, "workload");
  rep.tolerance_pct = jnum(doc, "tolerance_pct", 2.0);
  if (!doc.has("strategies") || !doc.at("strategies").is_array()) {
    bad(source, "missing strategies array");
  }
  for (const json::Value& sv : *doc.at("strategies").array) {
    if (!sv.is_object()) bad(source, "strategy entry is not an object");
    StrategyReport sr;
    sr.strategy = jstr(sv, "strategy");
    sr.baseline_ok = jbool(sv, "baseline_ok");
    sr.baseline_error = jstr(sv, "baseline_error");
    sr.baseline_ps = jint(sv, "baseline_ps");
    sr.ops_offered = static_cast<std::uint64_t>(jnum(sv, "ops_offered"));
    sr.ops_recorded = static_cast<std::uint64_t>(jnum(sv, "ops_recorded"));
    if (sv.has("knobs") && sv.at("knobs").is_array()) {
      for (const json::Value& kv : *sv.at("knobs").array) {
        if (!kv.is_object()) bad(source, "knob entry is not an object");
        KnobResult kr;
        kr.name = jstr(kv, "name");
        kr.kind = jstr(kv, "kind");
        kr.inert = jbool(kv, "inert");
        if (kv.has("points") && kv.at("points").is_array()) {
          for (const json::Value& pv : *kv.at("points").array) {
            kr.points.push_back(parse_point(pv));
          }
        }
        kr.improve2x_ps = jint(kv, "improve2x_ps");
        kr.ideal_ps = jint(kv, "ideal_ps");
        kr.best_improve_ps = jint(kv, "best_improve_ps");
        kr.swing_pct = jnum(kv, "swing_pct");
        kr.predicted_blame_ps = jint(kv, "predicted_blame_ps");
        kr.predicted_busy_ps = jint(kv, "predicted_busy_ps");
        kr.measured_ps = jint(kv, "measured_ps");
        kr.predicted_ps = jint(kv, "predicted_ps");
        kr.verdict = jstr(kv, "verdict");
        sr.knobs.push_back(std::move(kr));
      }
    }
    if (sv.has("ranking") && sv.at("ranking").is_array()) {
      for (const json::Value& rv : *sv.at("ranking").array) {
        if (rv.is_string()) sr.ranking.push_back(rv.string);
      }
    }
    sr.divergences = static_cast<int>(jnum(sv, "divergences"));
    sr.curve_knob = jstr(sv, "curve_knob");
    if (sv.has("curve") && sv.at("curve").is_array()) {
      for (const json::Value& cv : *sv.at("curve").array) {
        sr.curve.push_back(parse_point(cv));
      }
    }
    rep.strategies.push_back(std::move(sr));
  }
  return rep;
}

// ---- diff -----------------------------------------------------------------

namespace {

const StrategyReport* find_strategy(const WhatifReport& rep,
                                    const std::string& name) {
  for (const StrategyReport& sr : rep.strategies) {
    if (sr.strategy == name) return &sr;
  }
  return nullptr;
}

}  // namespace

WhatifDiff diff_whatif(const WhatifReport& cur, const WhatifReport& base,
                       double threshold_pct) {
  WhatifDiff d;
  d.text = "whatif diff (threshold " + fmt("%.1f", threshold_pct) + "%)\n";
  for (const StrategyReport& c : cur.strategies) {
    const StrategyReport* b = find_strategy(base, c.strategy);
    if (b == nullptr) {
      d.text += "== strategy " + c.strategy + ": only in current (note)\n";
      continue;
    }
    d.text += "== strategy " + c.strategy + "\n";
    // Denominator for relative gates: the baseline run time (gating small
    // knob deltas against themselves would be all noise).
    double denom =
        static_cast<double>(b->baseline_ps > 0 ? b->baseline_ps : 1);
    auto rel = [&](std::int64_t curv, std::int64_t basev) {
      return 100.0 * std::abs(static_cast<double>(curv - basev)) / denom;
    };
    double base_delta = rel(c.baseline_ps, b->baseline_ps);
    d.text += "  baseline: " + us(b->baseline_ps) + " -> " +
              us(c.baseline_ps) + " us (" + fmt("%.2f", base_delta) + "%)";
    if (base_delta > threshold_pct) {
      d.text += "  REGRESSION";
      ++d.regressions;
    }
    d.text += "\n";
    std::string ctop = c.ranking.empty() ? "" : c.ranking.front();
    std::string btop = b->ranking.empty() ? "" : b->ranking.front();
    if (ctop != btop) {
      d.text += "  top knob: " + (btop.empty() ? "(none)" : btop) + " -> " +
                (ctop.empty() ? "(none)" : ctop) + "  REGRESSION\n";
      ++d.regressions;
    }
    for (const KnobResult& ck : c.knobs) {
      const KnobResult* bk = find_knob(*b, ck.name);
      if (bk == nullptr) continue;
      if (ck.inert != bk->inert) {
        d.text += "  knob " + ck.name + ": inert " +
                  (bk->inert ? "true" : "false") + " -> " +
                  (ck.inert ? "true" : "false") + " (note)\n";
        continue;
      }
      double di = rel(ck.ideal_ps, bk->ideal_ps);
      double d2 = rel(ck.improve2x_ps, bk->improve2x_ps);
      if (di > threshold_pct) {
        d.text += "  knob " + ck.name + " ideal: " + us(bk->ideal_ps) +
                  " -> " + us(ck.ideal_ps) + " us (" + fmt("%.2f", di) +
                  "%)  REGRESSION\n";
        ++d.regressions;
      }
      if (d2 > threshold_pct) {
        d.text += "  knob " + ck.name + " improve@2x: " +
                  us(bk->improve2x_ps) + " -> " + us(ck.improve2x_ps) +
                  " us (" + fmt("%.2f", d2) + "%)  REGRESSION\n";
        ++d.regressions;
      }
      if (ck.verdict != bk->verdict) {
        d.text += "  knob " + ck.name + " verdict: " + bk->verdict + " -> " +
                  ck.verdict + " (note)\n";
      }
    }
  }
  for (const StrategyReport& b : base.strategies) {
    if (find_strategy(cur, b.strategy) == nullptr) {
      d.text += "== strategy " + b.strategy + ": only in baseline (note)\n";
    }
  }
  d.text += d.regressions == 0
                ? "no regressions\n"
                : std::to_string(d.regressions) + " regression(s)\n";
  return d;
}

}  // namespace gputn::obs
