// Multi-tenant SLO accounting for the serving workload.
//
// Each tenant gets its own latency histogram plus goodput counters (ops
// completed, ops within the latency SLO, payload bytes moved). The reporter
// folds everything into the run's StatRegistry under the existing metric
// contract — per-tenant histograms are named `lat.serve.t<i>` and aggregate
// get/put histograms `lat.serve.get` / `lat.serve.put`, all in nanoseconds —
// so `gputn report`, report diffs and `--timeseries` work on serving runs
// without modification: any `lat.*` histogram is already a latency row and
// p50/p99/p999 gating applies automatically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace gputn::serve {

/// Per-tenant rollup handed to benches (knee detection wants raw numbers,
/// not a rendered table).
struct TenantSummary {
  int tenant = 0;
  std::uint64_t ops = 0;     ///< completed requests
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t slo_ok = 0;  ///< completed within the latency SLO
  std::uint64_t bytes = 0;   ///< payload bytes moved (values only)
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double max_ns = 0.0;

  /// Goodput in requests/s: only SLO-conformant completions count.
  double goodput_rps(sim::Tick window) const {
    if (window <= 0) return 0.0;
    return static_cast<double>(slo_ok) * 1e12 / static_cast<double>(window);
  }
};

class SloReporter {
 public:
  /// `slo` is the per-request latency budget in ticks; 0 disables
  /// conformance accounting (every completion counts as goodput).
  SloReporter(int tenants, sim::Tick slo);

  void record(int tenant, sim::Tick latency, bool is_get, std::uint64_t bytes);

  int tenants() const { return static_cast<int>(per_tenant_.size()); }
  sim::Tick slo() const { return slo_; }
  std::uint64_t total_ops() const { return total_ops_; }
  std::uint64_t total_slo_ok() const { return total_slo_ok_; }

  TenantSummary summary(int tenant) const;
  std::vector<TenantSummary> summaries() const;

  /// Fold another reporter's samples into this one. Exact: histograms merge
  /// bucket-wise and counters sum, so absorbing per-client-node reporters
  /// (disjoint tenant sets) reproduces a single reporter fed every sample.
  /// Requires identical tenant count and SLO.
  void absorb(const SloReporter& other);

  /// Fold per-tenant histograms and counters into `out`:
  ///   histograms  lat.serve.t<i>, lat.serve.get, lat.serve.put   (ns)
  ///   counters    serve.t<i>.ops / .slo_ok / .bytes, serve.slo_ok
  void export_into(sim::StatRegistry& out) const;

  /// Human-readable per-tenant table (p50/p99/p999, SLO hit rate, goodput
  /// over `window`). Deterministic formatting.
  std::string table(sim::Tick window) const;

 private:
  struct Tenant {
    sim::Histogram lat_ns;  // completion latency in nanoseconds
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t slo_ok = 0;
    std::uint64_t bytes = 0;
  };

  sim::Tick slo_;
  std::vector<Tenant> per_tenant_;
  sim::Histogram get_ns_;
  sim::Histogram put_ns_;
  std::uint64_t total_ops_ = 0;
  std::uint64_t total_slo_ok_ = 0;
};

}  // namespace gputn::serve
