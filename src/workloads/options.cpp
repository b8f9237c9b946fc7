#include "workloads/options.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "cluster/cluster.hpp"
#include "sim/sync.hpp"

namespace gputn::workloads {

namespace {

/// One pairwise rule. The reject reasons repeat the rationale the original
/// per-flag rejections carried; the accept reasons document why the pair
/// composes (each observer is private to a run or spooled per node).
struct FlagRule {
  const char* a;
  const char* b;
  bool ok;
  const char* why;
};

constexpr FlagRule kFlagRules[] = {
    {"--replicas", "--trace", false, "replicas share no trace recorder"},
    {"--replicas", "--timeseries", false, "replicas share no sampler"},
    {"--replicas", "--flight", true,
     "one private recorder per replica, dumps merged in plan order"},
    {"--trace", "--timeseries", true, "both are pure single-run observers"},
    {"--trace", "--flight", true, "both are pure single-run observers"},
    {"--timeseries", "--flight", true, "both are pure single-run observers"},
};

bool flag_active(const ActiveFlags& f, const std::string& name) {
  if (name == "--replicas") return f.replicas;
  if (name == "--trace") return f.trace;
  if (name == "--timeseries") return f.timeseries;
  return f.flight;
}

}  // namespace

std::string flag_conflict(const ActiveFlags& f) {
  for (const FlagRule& r : kFlagRules) {
    if (r.ok) continue;
    if (flag_active(f, r.a) && flag_active(f, r.b)) {
      return std::string(r.a) + " cannot be combined with " + r.b + " (" +
             r.why + ")";
    }
  }
  return {};
}

std::string flag_matrix() {
  const char* flags[] = {"--replicas", "--trace", "--timeseries", "--flight"};
  std::string out =
      "Flag compatibility (pairwise; all four compose with --jobs):\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-14s", "");
  out += line;
  for (const char* col : flags) {
    std::snprintf(line, sizeof(line), "%-14s", col);
    out += line;
  }
  out += "\n";
  for (const char* row : flags) {
    std::snprintf(line, sizeof(line), "  %-14s", row);
    out += line;
    for (const char* col : flags) {
      const char* cell = ".";
      if (std::string(row) != col) {
        for (const FlagRule& r : kFlagRules) {
          if ((r.a == std::string(row) && r.b == col) ||
              (r.a == std::string(col) && r.b == row)) {
            cell = r.ok ? "ok" : "no";
          }
        }
      }
      std::snprintf(line, sizeof(line), "%-14s", cell);
      out += line;
    }
    out += "\n";
  }
  for (const FlagRule& r : kFlagRules) {
    if (r.ok) continue;
    out += std::string("  ") + r.a + " + " + r.b + ": " + r.why + "\n";
  }
  return out;
}

void attach_observers(cluster::Cluster& cluster, const RunOptions& opts) {
  if (opts.trace != nullptr) cluster.enable_tracing(*opts.trace);
  if (opts.timeseries != nullptr) cluster.attach_timeseries(*opts.timeseries);
  if (opts.flight != nullptr) cluster.attach_flight(*opts.flight);
}

void spawn_ranks(sim::Simulator& sim, std::vector<sim::Task<>> ranks,
                 sim::Tick& done) {
  sim.spawn(
      [](sim::Simulator& s, std::vector<sim::Task<>> rs,
         sim::Tick& at) -> sim::Task<> {
        co_await sim::all(s, std::move(rs));
        at = s.now();
      }(sim, std::move(ranks), done),
      "ranks");
}

sim::Tick run_ranks(cluster::Cluster& cluster, const RunOptions& opts,
                    std::vector<sim::Task<>> ranks,
                    const std::string& workload) {
  attach_observers(cluster, opts);
  sim::Simulator& sim = cluster.simulator();
  sim::Tick finished_at = -1;
  spawn_ranks(sim, std::move(ranks), finished_at);
  sim.run_until(sim::sec(10));
  if (finished_at < 0) {
    throw std::runtime_error(workload +
                             ": deadlocked (a rank had not finished after 10 "
                             "s of simulated time)");
  }
  cluster.flush_flight();
  return finished_at;
}

std::string ResultBase::stats_json() const {
  return sim::stats_json(net_stats);
}

void ResultBase::report() const {
  const char* m = !mode.empty() ? mode.c_str() : strategy_name(strategy);
  std::printf("%s [%s] %s: %.2f us, %s\n", label.c_str(), m, detail.c_str(),
              sim::to_us(total_time),
              correct ? "verified" : "VERIFICATION FAILED");
  std::uint64_t drops = net_stats.counter_value("fault.drops");
  std::uint64_t corruptions = net_stats.counter_value("fault.corruptions");
  if (drops != 0 || corruptions != 0) {
    std::printf(
        "  faults: %llu dropped, %llu corrupted; recovery: %llu retransmits, "
        "%llu acks, %llu nacks\n",
        static_cast<unsigned long long>(drops),
        static_cast<unsigned long long>(corruptions),
        static_cast<unsigned long long>(
            net_stats.counter_value("rel.retransmits")),
        static_cast<unsigned long long>(net_stats.counter_value("rel.acks_tx")),
        static_cast<unsigned long long>(
            net_stats.counter_value("rel.nacks_tx")));
  }
}

}  // namespace gputn::workloads
