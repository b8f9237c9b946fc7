#include "cluster/cluster.hpp"

#include <string>

#include "obs/flight.hpp"
#include "obs/timeseries.hpp"

namespace gputn::cluster {

Node::Node(sim::Simulator& sim, net::Fabric& fabric,
           const SystemConfig& config)
    : memory_(config.dram_bytes),
      cpu_(sim, memory_, config.cpu),
      gpu_(sim, memory_, config.gpu),
      nic_(sim, memory_, fabric, config.nic),
      triggered_(sim, nic_, memory_, config.triggered),
      rt_(sim, cpu_, gpu_, nic_, triggered_, memory_) {}

void Cluster::install_faults() {
  if (!config_.fault.enabled()) return;
  // Faults on the wire: install the injectors and switch every NIC to
  // reliable delivery before any node (and thus any link) is built. The
  // injectors are deterministic per link (rng seeded from the link name).
  fault_ = std::make_unique<fault::FaultModel>(config_.fault);
  fabric_.set_fault_injector_provider([this](const std::string& name) {
    return fault_->injector_for(name);
  });
  config_.nic.reliability.enabled = true;
}

Cluster::Cluster(sim::Simulator& sim, SystemConfig config, int node_count)
    : sim_(&sim), config_(std::move(config)), fabric_(sim, config_.fabric) {
  // Fail fast: a bad topology or routing spec, or a topology without
  // capacity for node_count, throws std::invalid_argument here, before a
  // single node is built. Both checks are O(1) index arithmetic; the
  // fabric builds its own copies at finalize().
  net::make_topology(config_.fabric.topology, node_count);
  net::make_router(config_.fabric.routing);
  install_faults();
  nodes_.reserve(node_count);
  for (int i = 0; i < node_count; ++i) {
    nodes_.push_back(std::make_unique<Node>(sim, fabric_, config_));
  }
  // All nodes are attached: build the switch graph now, so a bad topology
  // spec throws std::invalid_argument here instead of surfacing as a
  // mysterious stall on the first in-simulation send.
  fabric_.finalize();
}

void Cluster::export_net_stats(sim::StatRegistry& out, sim::Tick window) const {
  fabric_.export_stats(out);
  if (fault_) fault_->export_stats(out);
  sim::Tick now = sim_->now();
  out.counter("util.window_ps") +=
      static_cast<std::uint64_t>(window >= 0 ? window : now);
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    std::string p = "util.node" + std::to_string(i) + ".";
    Node& n = *nodes_[i];
    n.cpu().util().export_into(out, p + "cpu", now);
    n.gpu().cu_util().export_into(out, p + "gpu.cu", now);
    n.nic().cmd_util().export_into(out, p + "nic.cmd", now);
    n.nic().tx_dma_util().export_into(out, p + "dma.tx", now);
    n.nic().rx_dma_util().export_into(out, p + "dma.rx", now);
  }
  for (const auto& node : nodes_) {
    const sim::StatRegistry& s = node->nic().stats();
    for (const auto& [name, value] : s.counters()) {
      if (name.rfind("rel.", 0) == 0) out.counter(name) += value;
    }
    for (const auto& [name, acc] : s.accumulators()) {
      if (name.rfind("rel.", 0) != 0) continue;
      // Exact Welford-state combination: the aggregate's count / mean /
      // min / max / stddev match a single accumulator fed every sample.
      out.accumulator(name).merge(acc);
    }
    // Per-stage latency histograms (lat.*, recorded at each destination
    // NIC) merge exactly bucket-wise, so cluster-wide p50/p90/p99 are as
    // good as the per-node ones.
    for (const auto& [name, h] : s.histograms()) {
      out.histogram(name).merge(h);
    }
  }
}

void Cluster::attach_flight(obs::FlightRecorder& flight) {
  flight.set_wire(fabric_.wire());
  flight_ = &flight;
  spools_.clear();
  for (int i = 0; i < size(); ++i) {
    spools_.push_back(std::make_unique<obs::FlightSpool>(sim_->now_ptr(), i));
    nodes_[static_cast<std::size_t>(i)]->nic().set_flight(
        spools_.back().get());
  }
}

void Cluster::flush_flight() {
  if (flight_ == nullptr) return;
  std::vector<obs::FlightSpool*> sp;
  sp.reserve(spools_.size());
  for (auto& s : spools_) sp.push_back(s.get());
  obs::replay_spools(std::move(sp), *flight_);
}

void Cluster::attach_timeseries(obs::TimeSeries& ts) {
  for (int i = 0; i < size(); ++i) {
    std::string id = std::to_string(i);
    net::Link& up = fabric_.uplink(i);
    net::Link& down = fabric_.downlink(i);
    ts.add_counter("link.up" + id + ".bytes",
                   [&up] { return up.bytes_transmitted(); });
    ts.add_counter("link.down" + id + ".bytes",
                   [&down] { return down.bytes_transmitted(); });
    Node& n = node(i);
    nic::Nic& nic = n.nic();
    ts.add_gauge("node" + id + ".nic.cmdq",
                 [&nic] { return static_cast<std::uint64_t>(
                     nic.cmd_queue_depth()); });
    ts.add_gauge("node" + id + ".nic.unacked",
                 [&nic] { return static_cast<std::uint64_t>(
                     nic.reliability().unacked()); });
    gpu::Gpu& gpu = n.gpu();
    ts.add_gauge("node" + id + ".gpu.wgs",
                 [&gpu] { return static_cast<std::uint64_t>(
                     gpu.cu_util().in_use()); });
  }
  ts.start(*sim_);
}

void Cluster::enable_tracing(sim::TraceRecorder& trace) {
  for (int i = 0; i < size(); ++i) {
    std::string prefix = "node" + std::to_string(i);
    node(i).cpu().set_trace(&trace, prefix + ".cpu");
    node(i).gpu().set_trace(&trace, prefix + ".gpu");
    // The NIC learns its sibling lanes so message flows can start on the
    // gpu lane (trigger store) and step through the trigger unit's lane.
    node(i).nic().set_trace(&trace, prefix + ".nic", prefix + ".gpu",
                            prefix + ".trig");
    node(i).triggered().set_trace(&trace, prefix + ".trig");
  }
  fabric_.set_trace(&trace);
}

Cluster::~Cluster() {
  // Processes left suspended (a deadlocked rank, a parked work-group) hold
  // references into the nodes; destroy their frames before the nodes die.
  sim_->reap_processes();
}

}  // namespace gputn::cluster
