#include "workloads/registry.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "serve/serve.hpp"
#include "workloads/allreduce.hpp"
#include "workloads/broadcast.hpp"
#include "workloads/jacobi.hpp"
#include "workloads/microbench.hpp"

namespace gputn::workloads {

std::string WorkloadParams::get(const std::string& key,
                                const std::string& dflt) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it != values_.end() && !it->second.empty() ? it->second : dflt;
}

long WorkloadParams::get_int(const std::string& key, long dflt, long min,
                             long max) const {
  read_.insert(key);
  long v = dflt;
  auto it = values_.find(key);
  if (it != values_.end()) {
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE) {
      throw std::invalid_argument("--" + key + ": expected an integer, got '" +
                                  it->second + "'");
    }
  }
  if (v < min || v > max) {
    throw std::invalid_argument("--" + key + ": " + std::to_string(v) +
                                " out of range [" + std::to_string(min) + ", " +
                                std::to_string(max) + "]");
  }
  return v;
}

double WorkloadParams::get_double(const std::string& key, double dflt,
                                  double min, double max) const {
  read_.insert(key);
  double v = dflt;
  auto it = values_.find(key);
  if (it != values_.end()) {
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE) {
      throw std::invalid_argument("--" + key + ": expected a number, got '" +
                                  it->second + "'");
    }
  }
  if (!(v >= min && v <= max)) {
    throw std::invalid_argument("--" + key + ": " + std::to_string(v) +
                                " out of range [" + std::to_string(min) + ", " +
                                std::to_string(max) + "]");
  }
  return v;
}

void WorkloadParams::reject_unread(const std::string& workload) const {
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) {
      throw std::invalid_argument("unknown option --" + key + " for " +
                                  workload);
    }
  }
}

void Registry::add(WorkloadEntry entry) { entries_.push_back(std::move(entry)); }

const WorkloadEntry* Registry::find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

namespace {

Strategy parse_strategy(const std::string& s) {
  for (Strategy st : kTaxonomyStrategies) {
    if (s == strategy_name(st)) return st;
  }
  throw std::invalid_argument("unknown strategy '" + s +
                              "' (CPU|HDN|GDS|GPU-TN|GHN|GNN)");
}

BroadcastDrive parse_drive(const std::string& s) {
  for (BroadcastDrive d : {BroadcastDrive::kHdn, BroadcastDrive::kGpuTn,
                           BroadcastDrive::kNicChain}) {
    if (s == broadcast_drive_name(d)) return d;
  }
  throw std::invalid_argument("unknown drive '" + s +
                              "' (HDN|GPU-TN|NIC-chain)");
}

/// Copy the shared options into a workload config; opts.nodes == 0 keeps
/// the workload's own default node count. --strategy is not among them:
/// a workload that takes it reads it with read_strategy, so the one that
/// does not (broadcast) refuses it.
template <typename Cfg>
Cfg make_config(const RunOptions& opts) {
  Cfg cfg;
  if (opts.nodes != 0) cfg.nodes = opts.nodes;
  cfg.trace = opts.trace;
  cfg.timeseries = opts.timeseries;
  cfg.flight = opts.flight;
  cfg.quiet = opts.quiet;
  return cfg;
}

Strategy read_strategy(const RunOptions& opts, const WorkloadParams& p) {
  return p.has("strategy") ? parse_strategy(p.get("strategy", ""))
                           : opts.strategy;
}

ResultBase run_microbench_entry(const RunOptions& opts,
                                const WorkloadParams& p,
                                const cluster::SystemConfig& sys) {
  MicrobenchConfig cfg = make_config<MicrobenchConfig>(opts);
  cfg.strategy = read_strategy(opts, p);
  if (cfg.nodes != 2) {
    throw std::invalid_argument("microbench always pairs 2 nodes");
  }
  p.reject_unread("microbench");
  MicrobenchResult res = run_microbench(cfg, sys);
  if (!opts.quiet) {
    std::printf("%s one-cache-line microbenchmark:\n",
                strategy_name(cfg.strategy));
    for (const auto& ph : res.initiator_phases) {
      std::printf("  %-10s %.3f us\n", ph.label.c_str(), ph.us());
    }
    std::printf("  initiator complete  %.3f us\n",
                sim::to_us(res.initiator_completion));
    res.report();
  }
  return res;
}

ResultBase run_jacobi_entry(const RunOptions& opts, const WorkloadParams& p,
                            const cluster::SystemConfig& sys) {
  JacobiConfig cfg = make_config<JacobiConfig>(opts);
  cfg.strategy = read_strategy(opts, p);
  if (cfg.nodes != 4) {
    throw std::invalid_argument("jacobi is a fixed 2x2 decomposition: 4 nodes");
  }
  cfg.n = static_cast<int>(p.get_int("n", 256, 1, kMaxN));
  cfg.iterations = static_cast<int>(p.get_int("iterations", 10, 1, 1 << 20));
  cfg.overlap = p.flag("overlap");
  p.reject_unread("jacobi");
  JacobiResult res = run_jacobi(cfg, sys);
  if (!opts.quiet) {
    res.report();
    std::printf("  per-iteration %.2f us\n", sim::to_us(res.per_iteration()));
  }
  return res;
}

ResultBase run_allreduce_entry(const RunOptions& opts, const WorkloadParams& p,
                               const cluster::SystemConfig& sys) {
  AllreduceConfig cfg = make_config<AllreduceConfig>(opts);
  cfg.strategy = read_strategy(opts, p);
  if (cfg.nodes < 2) {
    throw std::invalid_argument("allreduce needs at least 2 ranks");
  }
  cfg.elements = static_cast<std::size_t>(
      p.get_double("mb", 8.0, 1.0 / 1024, 4096.0) * 1024 * 1024 / 4);
  cfg.nic_offload_allgather = p.flag("offload");
  p.reject_unread("allreduce");
  AllreduceResult res = run_allreduce(cfg, sys);
  if (!opts.quiet) {
    res.report();
    if (res.max_error > 0.0) {
      std::printf("  max |error| %.3g\n", res.max_error);
    }
  }
  return res;
}

ResultBase run_broadcast_entry(const RunOptions& opts, const WorkloadParams& p,
                               const cluster::SystemConfig& sys) {
  BroadcastConfig cfg = make_config<BroadcastConfig>(opts);
  if (cfg.nodes < 2) {
    throw std::invalid_argument("broadcast needs at least 2 nodes");
  }
  cfg.drive = parse_drive(p.get("drive", "NIC-chain"));
  cfg.bytes = static_cast<std::size_t>(
      p.get_double("mb", 1.0, 1.0 / 1024, 4096.0) * 1024 * 1024);
  cfg.chunks = static_cast<int>(p.get_int("chunks", 16, 1, 1 << 16));
  p.reject_unread("broadcast");
  BroadcastResult res = run_broadcast(cfg, sys);
  if (!opts.quiet) res.report();
  return res;
}

ResultBase run_serve_entry(const RunOptions& opts, const WorkloadParams& p,
                           const cluster::SystemConfig& sys) {
  serve::ServeConfig cfg = make_config<serve::ServeConfig>(opts);
  cfg.strategy = read_strategy(opts, p);
  cfg.clients = static_cast<int>(p.get_int("clients", cfg.clients, 1, 64));
  cfg.servers = static_cast<int>(p.get_int("servers", cfg.servers, 1, 64));
  cfg.tenants = static_cast<int>(p.get_int("tenants", cfg.tenants, 1, 256));
  cfg.window = static_cast<int>(p.get_int("window", cfg.window, 1, 64));
  cfg.keyspace = static_cast<std::uint64_t>(
      p.get_int("keys", static_cast<long>(cfg.keyspace), 1, 1 << 22));
  cfg.zipf = p.get_double("zipf", cfg.zipf, 0.0, 4.0);
  cfg.read_fraction = p.get_double("rw-mix", cfg.read_fraction, 0.0, 1.0);
  cfg.offered_load =
      p.get_double("offered-load", cfg.offered_load, 1.0, 1e12);
  cfg.requests =
      static_cast<int>(p.get_int("requests", cfg.requests, 1, 1 << 22));
  cfg.value_bytes = static_cast<std::uint64_t>(
      p.get_int("value-bytes", static_cast<long>(cfg.value_bytes), 16,
                1 << 20));
  cfg.slo = sim::us(p.get_double("slo-us", sim::to_us(cfg.slo), 0.0, 1e9));
  cfg.request_compute = sim::ns(p.get_double(
      "compute-ns", static_cast<double>(cfg.request_compute) / 1000.0, 0.0,
      1e9));
  cfg.qp_batch = static_cast<int>(p.get_int("batch", cfg.qp_batch, 1, 1024));
  cfg.nic_rate_limit =
      p.get_double("rate-limit", cfg.nic_rate_limit, 0.0, 1e12);
  // The driver's --seed (a replica's seed S + r) reaches every run as the
  // system config's fault seed; it is the request schedule's seed too.
  cfg.seed = static_cast<std::uint64_t>(
      p.get_int("seed", static_cast<long>(sys.fault.seed), 0, 1L << 62));
  p.reject_unread("serve");
  serve::ServeResult res = run_serve(cfg, sys);
  return res;
}

}  // namespace

void register_builtin_workloads(Registry& reg) {
  reg.add({"microbench", "one-cache-line latency decomposition (Fig. 8)",
           "--strategy CPU|HDN|GDS|GPU-TN|GHN|GNN", run_microbench_entry});
  reg.add({"jacobi", "2-D Jacobi halo exchange on a 2x2 torus (Fig. 9)",
           "--strategy S --n <grid> --iterations <k> --overlap",
           run_jacobi_entry});
  reg.add({"allreduce", "chunked-ring fp32 sum allreduce (Fig. 10)",
           "--strategy S --nodes <n> --mb <size> --offload",
           run_allreduce_entry});
  reg.add({"broadcast", "pipelined ring broadcast / NIC trigger chains",
           "--drive HDN|GPU-TN|NIC-chain --nodes <n> --mb <size> --chunks <c>",
           run_broadcast_entry, /*takes_strategy=*/false});
  reg.add({"serve",
           "Zipf-skewed multi-tenant KV serving with tail-latency SLOs",
           "--strategy CPU|GPU-TN --clients <n> --servers <m> --tenants <t> "
           "--zipf <s> --rw-mix <r> --offered-load <rps> --slo-us <us>",
           run_serve_entry});
}

}  // namespace gputn::workloads
