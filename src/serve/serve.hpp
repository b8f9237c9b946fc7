// Serving workload: Zipf-skewed multi-tenant KV / parameter-server traffic
// with tail-latency SLOs.
//
// N client nodes issue open-loop get/put requests (Poisson arrivals per
// tenant, Zipf-popular keys, configurable read/write mix) against M server
// nodes holding a key-sharded store in simulated GPU memory. Gets are
// one-sided RDMA reads served entirely by the target NIC. Puts carry the
// request to a per-(tenant, worker) server slot and need a response:
//
//   * Strategy::kCpu   — a host proxy thread on the server polls the slot
//     flags, applies the update, and posts the response put. Every response
//     pays the serial poll + post cost on one core: the proxy is the
//     bottleneck that bends the tail at high offered load (§2's CPU-driven
//     critical path).
//   * Strategy::kGpuTn — a persistent kernel applies the update and fires a
//     pre-staged triggered response put by storing a unique
//     (slot, round) tag to the NIC trigger address (§3). Descriptor
//     registration happens in a setup phase before traffic starts, so the
//     serving-phase critical path never touches the host CPU.
//
// Clients drive per-tenant queue pairs with doorbell batching (nic::Qp) and
// the NIC command pipeline can be paced by a token bucket
// (NicConfig::rate_limit) to model multi-tenant NIC rate limiting. Latency
// is measured per request from its *intended* open-loop arrival time, so
// queueing delay from an overloaded server shows up in the tail — that is
// what the knee in bench/fig_serve_tail measures.
//
// Everything is deterministic: the whole request schedule (arrival ticks,
// op mix, keys, rounds) is pre-generated from ServeConfig::seed, and
// repeated runs are bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/config.hpp"
#include "serve/slo.hpp"
#include "sim/units.hpp"
#include "workloads/options.hpp"

namespace gputn::serve {

struct ServeConfig : workloads::RunOptions {
  int clients = 2;   ///< client nodes (tenants are placed round-robin)
  int servers = 2;   ///< server nodes (keys sharded key % servers)
  int tenants = 4;
  /// Max outstanding requests per tenant (worker pool size). Each
  /// (tenant, worker) pair owns one request slot on every server.
  int window = 4;
  std::uint64_t keyspace = 1024;
  double zipf = 0.99;            ///< skew; 0 = uniform
  double read_fraction = 0.9;    ///< get share of the op mix
  double offered_load = 1e6;     ///< open-loop requests/s per tenant
  int requests = 200;            ///< requests per tenant
  std::uint64_t value_bytes = 128;  ///< >= 16 (signature + version header)
  /// Server-side work to apply one put (validation, index update).
  sim::Tick request_compute = sim::ns(200);
  /// Per-request latency budget; completions within it count as goodput.
  sim::Tick slo = sim::us(10);
  /// Doorbell batching on the per-tenant client QPs.
  int qp_batch = 4;
  sim::Tick qp_flush_timeout = sim::ns(200);
  /// Per-NIC command-pipeline token bucket (0 = unlimited).
  double nic_rate_limit = 0.0;
  int nic_rate_burst = 16;
  std::uint64_t seed = 1;
};

struct ServeResult : workloads::ResultBase {
  std::vector<TenantSummary> tenants;
  std::uint64_t requests_total = 0;
  /// Setup phase (GPU-TN: kernel launch + triggered-op registration)
  /// preceding the first open-loop arrival.
  sim::Tick setup_time = 0;
  /// Serving window (total_time - setup_time), the goodput denominator.
  sim::Tick serve_window = 0;
};

ServeResult run_serve(const ServeConfig& cfg,
                      const cluster::SystemConfig& sys);
ServeResult run_serve(const ServeConfig& cfg);

}  // namespace gputn::serve
