// Node and Cluster assembly: each node is a coherent SoC of {CPU, GPU, NIC +
// triggered-op extension, shared memory} (§5.1); nodes connect through the
// star fabric.
#pragma once

#include <memory>
#include <vector>

#include "cluster/config.hpp"
#include "core/triggered.hpp"
#include "cpu/cpu.hpp"
#include "fault/fault.hpp"
#include "gpu/gpu.hpp"
#include "mem/memory.hpp"
#include "net/fabric.hpp"
#include "nic/nic.hpp"
#include "rt/runtime.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace gputn::obs {
class FlightRecorder;
class FlightSpool;
class TimeSeries;
}  // namespace gputn::obs

namespace gputn::cluster {

class Node {
 public:
  Node(sim::Simulator& sim, net::Fabric& fabric, const SystemConfig& config);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  net::NodeId id() const { return nic_.node_id(); }
  mem::Memory& memory() { return memory_; }
  cpu::Cpu& cpu() { return cpu_; }
  gpu::Gpu& gpu() { return gpu_; }
  nic::Nic& nic() { return nic_; }
  core::TriggeredNic& triggered() { return triggered_; }
  rt::NodeRuntime& rt() { return rt_; }

 private:
  mem::Memory memory_;
  cpu::Cpu cpu_;
  gpu::Gpu gpu_;
  nic::Nic nic_;
  core::TriggeredNic triggered_;
  rt::NodeRuntime rt_;
};

class Cluster {
 public:
  /// Build `node_count` identical nodes on `sim` with `config`. Checks the
  /// fabric's topology and routing specs first: std::invalid_argument
  /// before any node is built.
  Cluster(sim::Simulator& sim, SystemConfig config, int node_count);
  /// Reaps processes left suspended so component destructors run safely.
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator& simulator() { return *sim_; }
  const SystemConfig& config() const { return config_; }
  net::Fabric& fabric() { return fabric_; }
  int size() const { return static_cast<int>(nodes_.size()); }

  /// Attach a trace recorder to every node's CPU, GPU, NIC, and trigger
  /// unit (lanes "node<i>.cpu" / ".gpu" / ".nic" / ".trig") plus the
  /// fabric ("net.switch", "net.down<i>"), with cross-lane flow events
  /// following each message from trigger store to remote deposit.
  void enable_tracing(sim::TraceRecorder& trace);
  Node& node(int i) { return *nodes_.at(i); }
  rt::NodeRuntime& rt(int i) { return node(i).rt(); }

  /// Merge fabric counters (net.*), injected-fault counters (fault.*),
  /// every node's reliability counters (rel.*, summed across nodes), the
  /// per-stage latency histograms (lat.*, exact bucket-wise merge), and
  /// the utilization ledgers (util.link.<name>.* via the fabric plus
  /// util.node<i>.{cpu,gpu.cu,nic.cmd,dma.tx,dma.rx}.*) into `out`.
  /// Deterministic: iteration orders are all sorted-map based.
  ///
  /// `window` is published as util.window_ps, the denominator report
  /// tooling uses for busy fractions. Callers pass the workload's own
  /// total time rather than defaulting to sim.now(): a trailing sampler
  /// event advances now() past the last workload event, and the exported
  /// stats must be bit-identical with and without sampling.
  void export_net_stats(sim::StatRegistry& out, sim::Tick window = -1) const;

  /// Attach a per-op flight recorder and embed the fabric's wire parameters
  /// in it (the analyzer needs them to split wire serialization from switch
  /// queueing). Each node's NIC records into its own spool; call
  /// flush_flight() after the run to replay the spools into the recorder
  /// in their canonical order (obs::replay_spools). The recorder must
  /// outlive the run. Recording never perturbs timing or counters.
  void attach_flight(obs::FlightRecorder& flight);

  /// Replay spooled flight legs into the attached recorder (no-op without
  /// attach_flight, idempotent otherwise).
  void flush_flight();

  /// Register this cluster's standard time-series probes on `ts` (per-link
  /// bytes per interval, per-node NIC command queue depth, unacked
  /// retransmission-window size, GPU work-group slots in use) and start
  /// sampling. The cluster must outlive the sampling run.
  void attach_timeseries(obs::TimeSeries& ts);

 private:
  void install_faults();

  sim::Simulator* sim_;
  SystemConfig config_;
  /// Owned before fabric_ so link callbacks into injectors stay valid for
  /// the fabric's whole lifetime.
  std::unique_ptr<fault::FaultModel> fault_;
  net::Fabric fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  obs::FlightRecorder* flight_ = nullptr;
  std::vector<std::unique_ptr<obs::FlightSpool>> spools_;
};

}  // namespace gputn::cluster
