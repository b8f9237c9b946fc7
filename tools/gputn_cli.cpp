// gputn — command-line driver for the simulation experiments.
//
//   gputn config     [--nodes N] [--loss P] [--seed S] [fabric options]
//   gputn sweep      [--jobs N] [--stats-json FILE]
//   gputn report     FILE... [--baseline FILE] [--threshold PCT] [--top N]
//   gputn analyze    FILE... [--baseline FILE] [--threshold PCT] [--top N]
//                    [--exemplar ID --trace OUT]
//   gputn whatif     WORKLOAD [workload options] [--strategies A,B]
//                    [--knobs K1,K2] [--scales 0.5,2,inf] [--jobs N]
//                    [--json FILE] [--baseline FILE] [--threshold PCT]
//                    [--tolerance PCT] [--top N] [--no-curve]
//   gputn <workload> [workload options]
//
// Workloads come from workloads::Registry (microbench, jacobi, allreduce,
// broadcast, serve); `gputn` with no arguments lists them. An option the
// workload does not take is a usage error (exit 2). Shared options:
//   --strategy S   driving strategy where the workload takes one
//   --nodes N      node count where the workload is size-flexible
//   --topology T --routing R --credits C
//                  the fabric (SystemConfig::fabric), also for `config`
//
// jacobi/allreduce/broadcast additionally accept fault injection:
//   --loss P   uniform per-packet loss rate on every link (e.g. 0.01);
//              enables NIC reliable delivery and prints fault/retry stats
//   --seed S   fault-injection RNG seed (default 1); serve also draws its
//              request schedule from it
//
// Parallel experiments (the exp engine):
//   --replicas R   run the workload R times with seeds S, S+1, ... as an
//                  exp::Plan; results are reported in plan order and
//                  --stats-json becomes the merged per-replica JSON
//   --jobs N       worker threads for multi-point runs (replicas / sweep);
//                  0 or absent = hardware concurrency. Output is
//                  bit-identical for every jobs value.
// `gputn sweep` runs the built-in fig09+fig10+ablation mini-sweep through
// the same engine (the plan bench/micro_sweep measures).
//
// Every workload also accepts observability flags:
//   --trace FILE       write a Chrome-trace (Perfetto) JSON timeline with
//                      per-message flow arrows (single runs only)
//   --stats-json FILE  write counters + latency histograms as JSON
//   --timeseries FILE  sample per-link bytes, NIC queue depths, retransmit
//                      windows and CU occupancy at a fixed simulated-time
//                      interval; .csv extension selects CSV, else JSON
//                      (single runs only, like --trace)
//   --sample-interval NS  sampling interval in simulated ns (default 1000)
//   --flight FILE      write the per-op flight recorder dump (stage stamps,
//                      tail exemplars) as JSON; unlike --trace this composes
//                      with --replicas: each replica gets its own recorder
//                      and the dumps are merged in plan order
//   --flight-sample P      record 1-in-P ops (deterministic hash sampling,
//                          default 1 = every op); exemplars ignore P
//   --flight-capacity N    op-ring capacity (default 4096, oldest evicted)
//   --flight-exemplars K   slowest ops kept per tenant (default 4)
//
// `gputn analyze` turns a flight dump into a critical-path blame report:
// per-path (put/get/oneway) category tables at p50/p99/p999, the tail
// exemplar list, --baseline category-by-category diffing (nonzero exit on
// regression past --threshold), and --exemplar ID --trace OUT to dump one
// op as a single-op Chrome trace for Perfetto.
//
// `gputn report` turns stats/sweep JSON files into a bottleneck attribution
// report (resources ranked by busy fraction, queue p99s, saturated links
// flagged, latency decomposition); with --baseline it prints per-metric
// deltas and exits nonzero when a gated metric regressed past --threshold
// (default 5%), which makes it usable as a CI perf gate.
//
// `gputn whatif` is the causal what-if profiler: it re-runs the workload
// under a matrix of virtually-scaled hardware knobs (see `gputn config` for
// the registry), ranks knobs by measured end-to-end improvement, and
// cross-validates each measured win against the blame-model and
// busy-fraction predictions from the baseline run, flagging divergences
// (queueing nonlinearity, hidden overlap, unattributed host software time).
// --json writes a deterministic report; --baseline diffs against a previous
// report and exits nonzero past --threshold, like `gputn report`.
//
// report, analyze and whatif parse --baseline/--threshold/--top alike:
// --threshold takes [0, 1e6] (defaults: report and whatif 5, analyze 10)
// and --top [0, 2^20].
//
// Exit code is 1 on verification failure, a regression past --threshold,
// an unreadable input or artifact, or a failed run; 2 on bad arguments
// (naming the flag). A run fails with its own error: the deadlock watchdog,
// the reliability layer giving up, a hardware unit's fault, or any other
// exception that leaves a rank (std::bad_alloc when node DRAM runs out),
// printed as "gputn: <what>". There is no log.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exp/plan.hpp"
#include "exp/runner.hpp"
#include "exp/sweeps.hpp"
#include "net/routing_api.hpp"
#include "net/topology_api.hpp"
#include "obs/critical.hpp"
#include "obs/flight.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/whatif.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/units.hpp"
#include "workloads/registry.hpp"

using namespace gputn;
using namespace gputn::workloads;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr, "usage: gputn <command> [opts]\n\n  config");
  std::fprintf(stderr, "%-12s print the simulated system parameters\n", "");
  std::fprintf(stderr,
               "  %-18s run the fig09+fig10+ablation mini-sweep in "
               "parallel\n  %-18s   --jobs <n> --stats-json <file>\n",
               "sweep", "");
  std::fprintf(stderr,
               "  %-18s bottleneck attribution from stats/sweep JSON\n"
               "  %-18s   <file>... --baseline <file> --threshold <pct> "
               "--top <n>\n",
               "report", "");
  std::fprintf(stderr,
               "  %-18s critical-path blame tables from a --flight dump\n"
               "  %-18s   <file>... --baseline <file> --threshold <pct> "
               "--top <n> --exemplar <id> --trace <out>\n",
               "analyze", "");
  std::fprintf(stderr,
               "  %-18s causal hardware sensitivity profile (counterfactual "
               "re-runs)\n"
               "  %-18s   <workload> [workload opts] --strategies <a,b> "
               "--knobs <k1,k2> --scales <0.5,2,inf> --jobs <n> "
               "--json <file> --baseline <file> --threshold <pct> "
               "--tolerance <pct> --top <n> --no-curve\n",
               "whatif", "");
  for (const auto& e : Registry::instance().entries()) {
    std::fprintf(stderr, "  %-18s %s\n", e.name.c_str(),
                 e.description.c_str());
    std::fprintf(stderr, "  %-18s   %s\n", "", e.options_help.c_str());
  }
  std::fprintf(
      stderr,
      "\n  fabric (any workload): --topology "
      "star|fat-tree:k=8|torus:4x4x4|dragonfly:a=4,h=2,p=2 "
      "--routing deterministic|adaptive "
      "--credits <n per switch port, 0 = unlimited>\n"
      "  fault injection (jacobi/allreduce/broadcast): --loss <rate> "
      "--seed <s> (serve: the request-schedule seed)\n"
      "  replication (any workload): --replicas <r> --jobs <n>\n"
      "  observability (any workload): --trace <file> --stats-json <file> "
      "--timeseries <file> --sample-interval <ns> "
      "--flight <file> --flight-sample <p> --flight-capacity <n> "
      "--flight-exemplars <k>\n");
  std::exit(2);
}

/// Tiny flag parser: --key value, boolean --key, and bare operands (the
/// FILE list of report and analyze; every other command refuses them).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        operands_.push_back(std::move(key));
        continue;
      }
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  bool has(const std::string& k) const { return values_.count(k) > 0; }
  std::string get(const std::string& k, const std::string& dflt) const {
    auto it = values_.find(k);
    return it != values_.end() && !it->second.empty() ? it->second : dflt;
  }
  const std::map<std::string, std::string>& all() const { return values_; }
  const std::vector<std::string>& operands() const { return operands_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> operands_;
};

/// The RunOptions fields and driver-level flags everything shares; the rest
/// of the command line becomes the workload's WorkloadParams.
bool is_driver_key(const std::string& k) {
  return k == "nodes" || k == "trace" || k == "stats-json" ||
         k == "timeseries" || k == "sample-interval" || k == "loss" ||
         k == "seed" || k == "jobs" || k == "replicas" || k == "flight" ||
         k == "flight-sample" || k == "flight-capacity" ||
         k == "flight-exemplars" || k == "topology" || k == "routing" ||
         k == "credits";
}

/// Validated value of a numeric driver flag (shared Args -> long plumbing).
long driver_int(const Args& args, const std::string& key, long dflt, long min,
                long max) {
  if (!args.has(key)) return dflt;
  WorkloadParams p;
  p.set(key, args.get(key, ""));
  return p.get_int(key, dflt, min, max);
}

/// Same, floating point (--loss, --threshold, whatif's --tolerance).
double driver_double(const Args& args, const std::string& key, double dflt,
                     double min, double max) {
  if (!args.has(key)) return dflt;
  WorkloadParams p;
  p.set(key, args.get(key, ""));
  return p.get_double(key, dflt, min, max);
}

/// The run flags every workload command, whatif and `gputn config` share.
struct RunFlags {
  RunOptions opts;  ///< --nodes
  long seed = 1;    ///< --seed; replica r runs seed + r
  /// Table 2 with the --topology/--routing/--credits fabric and the
  /// --loss/--seed fault injection.
  cluster::SystemConfig sys = cluster::SystemConfig::table2();
};

RunFlags run_flags(const Args& args) {
  RunFlags f;  // nodes stays 0 (= workload default) without --nodes
  f.opts.nodes = static_cast<int>(driver_int(args, "nodes", 0, 2, 1 << 16));
  // An absent fabric flag keeps Table 2's star, deterministic routing and
  // unlimited credits (--credits 0). make_topology/make_router validate the
  // spec strings when the fabric is finalized.
  net::FabricConfig& fabric = f.sys.fabric;
  fabric.topology = args.get("topology", fabric.topology);
  fabric.routing = args.get("routing", fabric.routing);
  fabric.credits_per_port = static_cast<int>(
      driver_int(args, "credits", fabric.credits_per_port, 0, 1 << 20));
  // Validated, so `--loss lots` is a usage error, not 0.0.
  double loss = driver_double(args, "loss", 0.0, 0.0, 1.0);
  f.seed = driver_int(args, "seed", 1, 0, LONG_MAX - (1 << 20));
  f.sys.fault = fault::FaultConfig::uniform_loss(
      loss, static_cast<std::uint64_t>(f.seed));
  return f;
}

/// The diff-gate flags report, analyze and whatif share, into `opt`:
/// --threshold PCT (growth past it regresses; each command's options carry
/// its own default) and --top N (rows rendered). Returns --baseline's file,
/// or "" without the flag.
template <class Options>
std::string gate_flags(const Args& args, Options& opt) {
  opt.threshold_pct =
      driver_double(args, "threshold", opt.threshold_pct, 0.0, 1e6);
  opt.top = static_cast<int>(driver_int(args, "top", opt.top, 0, 1 << 20));
  std::string baseline = args.get("baseline", "");
  if (args.has("baseline") && baseline.empty()) {
    throw std::invalid_argument("--baseline: expected a file");
  }
  return baseline;
}

/// report and analyze take FILE operands, the diff gate and `extra` flags;
/// any other flag is a usage error that names it.
void check_file_command(const Args& args, const std::string& cmd,
                        std::initializer_list<std::string_view> extra) {
  if (args.operands().empty()) usage();
  for (const auto& [key, value] : args.all()) {
    if (key == "baseline" || key == "threshold" || key == "top" ||
        std::find(extra.begin(), extra.end(), key) != extra.end()) {
      continue;
    }
    throw std::invalid_argument("unknown option --" + key + " for " + cmd);
  }
}

/// Write one artifact: `body` into `path`, flushed before the check, so
/// bytes that fail at close time (disk full, dead mount) surface here and
/// not in a destructor nobody checks. An unwritable artifact fails the run
/// (these files gate CI): returns 1 after naming `what` on stderr, else 0
/// after printing "  <label>: <path><detail()>".
int write_artifact(const std::string& path, const char* label,
                   const char* what,
                   const std::function<void(std::ostream&)>& body,
                   const std::function<std::string()>& detail = nullptr) {
  std::ofstream out(path);
  if (out) {
    body(out);
    out << std::flush;
  }
  if (!out.good()) {
    std::fprintf(stderr, "gputn: cannot write %s to '%s'\n", what,
                 path.c_str());
    return 1;
  }
  std::printf("  %s: %s%s\n", label, path.c_str(),
              detail ? detail().c_str() : "");
  return 0;
}

/// The --flight-* knobs as a recorder config (shared by single runs and the
/// per-replica recorders). The sampling seed is the run seed, so replicas
/// (seed S, S+1, ...) make independent keep decisions.
obs::FlightConfig flight_config(const Args& args, long seed) {
  obs::FlightConfig cfg;
  cfg.sample_period = static_cast<std::uint64_t>(
      driver_int(args, "flight-sample", 1, 1, 1L << 30));
  cfg.capacity =
      static_cast<std::size_t>(driver_int(args, "flight-capacity", 4096, 1,
                                          1 << 24));
  cfg.exemplars_per_tenant = static_cast<std::size_t>(
      driver_int(args, "flight-exemplars", 4, 0, 4096));
  cfg.seed = static_cast<std::uint64_t>(seed);
  return cfg;
}

/// --trace / --stats-json / --timeseries / --flight handling shared by every
/// workload subcommand. Owns the TraceRecorder, TimeSeries and
/// FlightRecorder for the run and writes the artifacts at the end. Every
/// write reports I/O failures to stderr and makes finish() return nonzero:
/// an unwritable artifact must fail the run, not silently vanish (these
/// files gate CI).
class ObservabilityFlags {
 public:
  explicit ObservabilityFlags(const Args& args, long seed)
      : trace_path_(args.get("trace", "")),
        stats_path_(args.get("stats-json", "")),
        ts_path_(args.get("timeseries", "")),
        flight_path_(args.get("flight", "")) {
    if (!ts_path_.empty()) {
      long interval_ns =
          driver_int(args, "sample-interval", 1000, 1, 1L << 40);
      ts_ = std::make_unique<obs::TimeSeries>(sim::ns(interval_ns));
    }
    if (!flight_path_.empty()) {
      flight_ =
          std::make_unique<obs::FlightRecorder>(flight_config(args, seed));
    }
  }

  /// Recorder to hand to the workload config, or nullptr when not requested.
  sim::TraceRecorder* trace() {
    return trace_path_.empty() ? nullptr : &recorder_;
  }
  /// Sampler to hand to the workload config, or nullptr when not requested.
  obs::TimeSeries* timeseries() { return ts_.get(); }
  /// Flight recorder for the run, or nullptr when not requested.
  obs::FlightRecorder* flight() { return flight_.get(); }

  /// Write the requested artifacts; returns 0, or 1 on I/O failure.
  int finish(const ResultBase& res) {
    int rc = 0;
    if (!trace_path_.empty()) {
      rc |= write_artifact(
          trace_path_, "trace", "trace",
          [&](std::ostream& out) { recorder_.write_json(out); },
          [&] {
            return " (" + std::to_string(recorder_.event_count()) +
                   " events)";
          });
    }
    if (!stats_path_.empty()) {
      rc |= write_artifact(stats_path_, "stats", "stats",
                           [&](std::ostream& out) {
                             out << res.stats_json() << "\n";
                           });
    }
    if (ts_ != nullptr) {
      bool csv = ts_path_.size() >= 4 &&
                 ts_path_.compare(ts_path_.size() - 4, 4, ".csv") == 0;
      rc |= write_artifact(
          ts_path_, "timeseries", "timeseries",
          [&](std::ostream& out) {
            if (csv) {
              ts_->write_csv(out);
            } else {
              ts_->write_json(out);
            }
          },
          [&] { return " (" + std::to_string(ts_->rows()) + " samples)"; });
    }
    if (flight_ != nullptr) {
      flight_->set_run_info(res.label, !res.mode.empty()
                                           ? res.mode
                                           : strategy_name(res.strategy));
      rc |= write_artifact(
          flight_path_, "flight", "flight dump",
          [&](std::ostream& out) { out << flight_->json() << "\n"; },
          [&] {
            return " (" + std::to_string(flight_->offered()) +
                   " ops offered, " + std::to_string(flight_->recorded()) +
                   " recorded)";
          });
    }
    return rc;
  }

 private:
  std::string trace_path_;
  std::string stats_path_;
  std::string ts_path_;
  std::string flight_path_;
  sim::TraceRecorder recorder_;
  std::unique_ptr<obs::TimeSeries> ts_;
  std::unique_ptr<obs::FlightRecorder> flight_;
};

/// Write a merged sweep JSON when --stats-json was given; 0 or 1 (I/O).
int write_sweep_json(const Args& args, const gputn::exp::RunSummary& summary) {
  std::string path = args.get("stats-json", "");
  if (path.empty()) return 0;
  return write_artifact(path, "stats", "stats", [&](std::ostream& out) {
    out << gputn::exp::results_json(summary) << "\n";
  });
}

/// Report a completed multi-point run in plan order; returns the exit code.
int report_sweep(const gputn::exp::RunSummary& summary, int jobs) {
  for (const auto& r : summary.results) {
    if (r.ok) {
      std::printf("[%-28s] ", r.id.c_str());
      r.result.report();
    } else {
      std::printf("[%-28s] FAILED: %s\n", r.id.c_str(), r.error.c_str());
    }
  }
  std::printf("%zu points, %d jobs, %.2f s host time, %zu failed\n",
              summary.results.size(), jobs, summary.wall_ms / 1000.0,
              summary.failures);
  return summary.all_correct() ? 0 : 1;
}

/// `gputn <workload> --replicas R`: the run-point list for seeds S..S+R-1,
/// each `run`'s config with its own seed.
/// `flights`, when non-empty, holds one recorder per replica (plan order);
/// per-point recorders are what lets --flight compose with --jobs and stay
/// bit-identical — no replica ever shares recorder state with another.
gputn::exp::Plan replica_plan(
    const WorkloadEntry& entry, const RunFlags& run,
    const WorkloadParams& params, long replicas,
    const std::vector<std::unique_ptr<obs::FlightRecorder>>& flights) {
  gputn::exp::Plan plan;
  RunOptions opts = run.opts;
  for (long r = 0; r < replicas; ++r) {
    long s = run.seed + r;
    opts.flight = flights.empty() ? nullptr
                                  : flights[static_cast<std::size_t>(r)].get();
    cluster::SystemConfig sys = run.sys;
    sys.fault.seed = static_cast<std::uint64_t>(s);
    plan.add_workload(Registry::instance(),
                      entry.name + "/seed" + std::to_string(s), entry.name,
                      opts, params, sys);
  }
  return plan;
}

/// Write the plan-order merged flight dump for a --replicas run; 0 or 1.
int write_merged_flight(
    const Args& args, const gputn::exp::RunSummary& summary,
    const std::vector<std::unique_ptr<obs::FlightRecorder>>& flights) {
  if (flights.empty()) return 0;
  std::vector<std::pair<std::string, obs::FlightRecorder*>> points;
  for (std::size_t i = 0;
       i < summary.results.size() && i < flights.size(); ++i) {
    const auto& r = summary.results[i];
    if (r.ok) {
      flights[i]->set_run_info(r.result.label,
                               !r.result.mode.empty()
                                   ? r.result.mode
                                   : strategy_name(r.result.strategy));
    }
    points.emplace_back(r.id, flights[i].get());
  }
  return write_artifact(
      args.get("flight", ""), "flight", "flight dump",
      [&](std::ostream& out) {
        out << obs::merged_flight_json(std::move(points)) << "\n";
      },
      [&] { return " (" + std::to_string(flights.size()) + " points)"; });
}

int run_workload(const WorkloadEntry& entry, const Args& args) {
  WorkloadParams params;
  for (const auto& [k, v] : args.all()) {
    if (!is_driver_key(k)) params.set(k, v);
  }

  RunFlags run = run_flags(args);
  long replicas = driver_int(args, "replicas", 1, 1, 1 << 20);
  int jobs = static_cast<int>(driver_int(args, "jobs", 0, 0, 4096));
  // Pairwise multi-run / observer flag rules come from the one shared table
  // (workloads::kFlagRules — also printed by `gputn config`).
  ActiveFlags active;
  active.replicas = replicas > 1;
  active.trace = args.has("trace");
  active.timeseries = args.has("timeseries");
  active.flight = args.has("flight");
  if (std::string conflict = flag_conflict(active); !conflict.empty()) {
    std::fprintf(stderr, "gputn: %s\n", conflict.c_str());
    return 2;
  }
  if (replicas > 1) {
    // Seed-replicated run through the parallel engine. Each replica is an
    // isolated simulation; the merged report/JSON is in plan (seed) order
    // and bit-identical for any --jobs value.
    std::vector<std::unique_ptr<obs::FlightRecorder>> flights;
    if (args.has("flight")) {
      for (long r = 0; r < replicas; ++r) {
        flights.push_back(std::make_unique<obs::FlightRecorder>(
            flight_config(args, run.seed + r)));
      }
    }
    gputn::exp::Runner runner(jobs);
    gputn::exp::RunSummary summary =
        runner.run(replica_plan(entry, run, params, replicas, flights));
    int rc = report_sweep(summary, runner.jobs());
    int io_rc = write_sweep_json(args, summary);
    int fl_rc = write_merged_flight(args, summary, flights);
    if (rc != 0) return rc;
    return io_rc != 0 ? io_rc : fl_rc;
  }

  ObservabilityFlags obs(args, run.seed);
  run.opts.trace = obs.trace();
  run.opts.timeseries = obs.timeseries();
  run.opts.flight = obs.flight();

  ResultBase res = entry.run(run.opts, params, run.sys);
  int obs_rc = obs.finish(res);
  return res.correct ? obs_rc : 1;
}

/// `gputn sweep`: the built-in mini-sweep on the parallel engine.
int run_sweep(const Args& args) {
  if (args.has("trace") || args.has("timeseries")) {
    std::fprintf(stderr,
                 "gputn: --trace/--timeseries are single-run only; "
                 "the sweep runs its points in parallel\n");
    return 2;
  }
  int jobs = static_cast<int>(driver_int(args, "jobs", 0, 0, 4096));
  gputn::exp::Runner runner(jobs);
  gputn::exp::RunSummary summary = runner.run(gputn::exp::mini_sweep_plan());
  int rc = report_sweep(summary, runner.jobs());
  int io_rc = write_sweep_json(args, summary);
  return rc != 0 ? rc : io_rc;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// `gputn report FILE... [--baseline FILE] [--threshold PCT] [--top N]`.
int run_report(const Args& args) {
  check_file_command(args, "report", {});
  obs::ReportOptions opt;
  std::string baseline = gate_flags(args, opt);
  obs::Report base;
  if (!baseline.empty()) {
    base = obs::parse_report(slurp(baseline), baseline);
  }
  int rc = 0;
  for (const std::string& f : args.operands()) {
    obs::Report rep = obs::parse_report(slurp(f), f);
    std::fputs(obs::render_report(rep, opt).c_str(), stdout);
    if (!baseline.empty()) {
      obs::Diff d = obs::diff_reports(rep, base, opt);
      std::fputs(d.text.c_str(), stdout);
      if (d.regressions > 0) rc = 1;
    }
  }
  return rc;
}

/// `gputn analyze FILE... [--baseline FILE] [--threshold PCT] [--top N]
///  [--exemplar ID --trace OUT]`.
int run_analyze(const Args& args) {
  check_file_command(args, "analyze", {"exemplar", "trace"});
  obs::AnalyzeOptions opt;
  std::string baseline = gate_flags(args, opt);
  std::string trace_out = args.get("trace", "");
  bool want_exemplar = args.has("exemplar");
  if (want_exemplar == trace_out.empty()) {
    throw std::invalid_argument("--exemplar ID and --trace OUT go together");
  }
  // Op ids use all 64 bits (serve's put tags set bit 63), past
  // driver_int's long.
  std::uint64_t exemplar = 0;
  if (want_exemplar) {
    std::string id = args.get("exemplar", "");
    char* end = nullptr;
    errno = 0;
    exemplar = std::strtoull(id.c_str(), &end, 10);
    if (id.empty() || *end != '\0' || errno == ERANGE) {
      throw std::invalid_argument("--exemplar: expected an op id, got '" +
                                  id + "'");
    }
  }
  obs::Analysis base;
  if (!baseline.empty()) {
    base = obs::analyze_flight(slurp(baseline), baseline);
  }
  int rc = 0;
  for (const std::string& f : args.operands()) {
    obs::Analysis a = obs::analyze_flight(slurp(f), f);
    std::fputs(obs::render_analysis(a, opt).c_str(), stdout);
    if (!baseline.empty()) {
      obs::AnalyzeDiff d = obs::diff_analyses(a, base, opt);
      std::fputs(d.text.c_str(), stdout);
      if (d.regressions > 0) rc = 1;
    }
    if (want_exemplar) {
      bool dumped = false;
      for (const obs::AnalyzedRun& run : a.runs) {
        if (obs::dump_exemplar_trace(run, exemplar, trace_out)) {
          std::printf("  exemplar %llu: %s\n",
                      static_cast<unsigned long long>(exemplar),
                      trace_out.c_str());
          dumped = true;
          break;
        }
      }
      if (!dumped) {
        std::fprintf(stderr,
                     "gputn: no op with id %llu in '%s' (or '%s' is not "
                     "writable)\n",
                     static_cast<unsigned long long>(exemplar), f.c_str(),
                     trace_out.c_str());
        rc = 1;
      }
    }
  }
  return rc;
}

/// Comma-split a list flag value ("a,b,c" -> {"a","b","c"}, empties
/// dropped).
std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// `gputn whatif WORKLOAD [...]`: the causal what-if profiler.
int run_whatif_cmd(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) usage();
  std::string workload = argv[2];
  Args args(argc, argv, 3);
  if (!args.operands().empty()) usage();

  // The profiler owns its own plan, recorders and parallelism; the
  // single-run observer and multi-run flags do not compose with it.
  static const char* kRejected[] = {
      "trace",           "timeseries",       "flight",         "replicas",
      "stats-json",      "flight-sample",    "flight-capacity",
      "flight-exemplars", "sample-interval"};
  for (const char* k : kRejected) {
    if (args.has(k)) {
      std::fprintf(stderr,
                   "gputn: --%s cannot be combined with whatif (the profiler "
                   "drives its own runs and recorders)\n",
                   k);
      return 2;
    }
  }

  auto is_whatif_key = [](const std::string& k) {
    return k == "strategies" || k == "knobs" || k == "scales" ||
           k == "tolerance" || k == "threshold" || k == "baseline" ||
           k == "json" || k == "top" || k == "no-curve";
  };
  WorkloadParams params;
  for (const auto& [k, v] : args.all()) {
    if (!is_driver_key(k) && !is_whatif_key(k)) params.set(k, v);
  }

  obs::WhatifOptions opt;
  opt.jobs = static_cast<int>(driver_int(args, "jobs", 0, 0, 4096));
  opt.tolerance_pct =
      driver_double(args, "tolerance", opt.tolerance_pct, 0.0, 100.0);
  std::string baseline = gate_flags(args, opt);
  opt.curve = !args.has("no-curve");
  opt.knobs = split_csv(args.get("knobs", ""));
  opt.strategies.clear();
  for (const std::string& name : split_csv(
           args.get("strategies", "CPU,GPU-TN"))) {
    bool found = false;
    for (Strategy s : kTaxonomyStrategies) {
      if (name == strategy_name(s)) {
        opt.strategies.push_back(s);
        found = true;
      }
    }
    if (!found) {
      throw std::invalid_argument("unknown strategy: " + name +
                                  " (CPU, HDN, GDS, GPU-TN, GHN, GNN)");
    }
  }
  opt.scales.clear();
  for (const std::string& tok : split_csv(args.get("scales", "0.5,2,inf"))) {
    if (tok == "inf") {
      opt.scales.push_back(obs::kInfiniteSpeed);
      continue;
    }
    WorkloadParams p;
    p.set("scale", tok);
    opt.scales.push_back(p.get_double("scale", 0.0, 1e-6, 1e12));
  }

  RunFlags run = run_flags(args);

  // Parse the baseline before burning the matrix: a corrupt file fails in
  // milliseconds, not after the full counterfactual sweep.
  obs::WhatifReport base;
  if (!baseline.empty()) base = obs::parse_whatif(slurp(baseline), baseline);

  obs::WhatifReport rep = obs::run_whatif(Registry::instance(), workload,
                                          params, run.opts, run.sys, opt);
  std::fputs(obs::render_whatif(rep, opt).c_str(), stdout);

  int rc = 0;
  for (const obs::StrategyReport& sr : rep.strategies) {
    if (!sr.baseline_ok) rc = 1;
  }
  std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    rc |= write_artifact(json_path, "whatif", "whatif report",
                         [&](std::ostream& out) {
                           out << obs::whatif_json(rep);
                         });
  }
  if (!baseline.empty()) {
    obs::WhatifDiff d = obs::diff_whatif(rep, base, opt.threshold_pct);
    std::fputs(d.text.c_str(), stdout);
    if (d.regressions > 0) rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  register_builtin_workloads(Registry::instance());
  if (argc < 2) usage();
  std::string cmd = argv[1];
  // Bad flags and values throw std::invalid_argument: exit 2, naming the
  // flag. Unreadable or malformed input files and simulation failures
  // (deadlock watchdog, reliability giving up under a pathological loss
  // rate) surface as other exceptions: exit 1, like a regression past a
  // --baseline gate. A self-diff exits 0.
  try {
    // Positional workload argument, so dispatched before the Args parser.
    if (cmd == "whatif") return run_whatif_cmd(argc, argv);
    Args args(argc, argv, 2);
    if (cmd == "report") return run_report(args);
    if (cmd == "analyze") return run_analyze(args);
    if (!args.operands().empty()) usage();
    if (cmd == "config") {
      for (const auto& [key, value] : args.all()) {
        if (key != "nodes" && key != "topology" && key != "routing" &&
            key != "credits" && key != "loss" && key != "seed") {
          throw std::invalid_argument("unknown option --" + key +
                                      " for config");
        }
      }
      RunFlags flags = run_flags(args);
      // Describe only a fabric a workload would build: the checks Cluster
      // makes, for the --nodes count (1 without it).
      const net::FabricConfig& fabric = flags.sys.fabric;
      net::make_topology(fabric.topology, std::max(1, flags.opts.nodes));
      net::make_router(fabric.routing);
      std::printf("%s", flags.sys.describe().c_str());
      std::printf("\n%s", flag_matrix().c_str());
      std::printf("\nWhatif knobs (gputn whatif --knobs ...):\n");
      for (const obs::Knob& k : obs::knob_registry()) {
        std::printf("  %-15s %-9s %s\n", k.name.c_str(), k.kind.c_str(),
                    k.description.c_str());
      }
      return 0;
    }
    if (cmd == "sweep") {
      return run_sweep(args);
    }
    if (const WorkloadEntry* entry = Registry::instance().find(cmd)) {
      return run_workload(*entry, args);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "gputn: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gputn: %s\n", e.what());
    return 1;
  }
  usage();
}
