// Host-cost probe binary of the simulator benchmark (run.py starts it).
//
// Every invocation is one fresh process that measures one thing from
// outside the simulator, through public API only, and prints one JSON
// object on stdout:
//
//   perfbench run <workload> [--seed N] [--tiny]
//       One workload run (run_allreduce / run_jacobi / serve::run_serve),
//       split into setup, run and tail spans, plus peak RSS and the exact
//       simulated results run.py pins.
//   perfbench build <workload> cluster|dram|topology [--tiny]
//       One set-up constructor on the workload's shape, cold.
//   perfbench probes <workload> [--tiny]
//       Nine per-operation probes on the workload's ranks and DRAM size.
//
// The process is never reused for a second measurement of set-up: the first
// cluster build in a process pays the page faults a CLI user pays, while
// later builds reuse backings the allocator kept (README.md, "Pitfalls").
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "mem/memory.hpp"
#include "net/fabric.hpp"
#include "obs/timeseries.hpp"
#include "serve/serve.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "workloads/allreduce.hpp"
#include "workloads/jacobi.hpp"
#include "workloads/options.hpp"

namespace {

using namespace gputn;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Output: spans plus flat values, one JSON object per process.

struct Span {
  std::string name;
  std::string parent;
  double start_s;
  double end_s;
};

class Report {
 public:
  Report() : t0_(Clock::now()) {}

  /// Seconds since the process started measuring.
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  void span(std::string name, std::string parent, double start_s,
            double end_s) {
    spans_.push_back({std::move(name), std::move(parent), start_s, end_s});
  }
  void value(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    fields_.push_back("\"" + key + "\": " + buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    fields_.push_back("\"" + key + "\": " + std::to_string(v));
  }
  void flag(const std::string& key, bool v) {
    fields_.push_back("\"" + key + "\": " + (v ? "true" : "false"));
  }

  void print() const {
    std::string out = "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[96];
      std::snprintf(buf, sizeof buf, "\"start_s\": %.9f, \"end_s\": %.9f}",
                    s.start_s, s.end_s);
      out += (i ? ", " : "") + std::string("{\"name\": \"") + s.name +
             "\", \"parent\": \"" + s.parent + "\", " + buf;
    }
    out += "]";
    for (const std::string& f : fields_) out += ", " + f;
    out += "}\n";
    std::fputs(out.c_str(), stdout);
  }

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::string> fields_;
};

struct Usage {
  double maxrss_mb;
  long minor_faults;
};

Usage usage_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_maxrss) / 1024.0, ru.ru_minflt};
}

// ---------------------------------------------------------------------------
// Workloads: the three fixed points (and their tiny self-check sizes).

struct Workload {
  int ranks = 0;
  /// Node DRAM as the workload's runner sizes it from its parameters (the
  /// formulas below mirror allreduce.cpp, serve.cpp and jacobi.cpp), so the
  /// set-up spans and probes rebuild the workload's shape.
  std::uint64_t dram_bytes = 0;
  std::function<workloads::ResultBase(obs::TimeSeries*)> run;
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  const std::uint64_t table2_dram = cluster::SystemConfig::table2().dram_bytes;
  Workload w;
  if (name == "allreduce-gputn") {
    workloads::AllreduceConfig c;
    c.strategy = workloads::Strategy::kGpuTn;
    c.nodes = tiny ? 8 : 128;
    c.elements = (tiny ? (64u << 10) : (1u << 20)) / sizeof(float);  // --mb 1
    c.quiet = true;
    w.ranks = c.nodes;
    std::uint64_t vec = c.elements * sizeof(float);
    w.dram_bytes = vec + 4 * (vec / static_cast<std::uint64_t>(c.nodes)) +
                   (8u << 20);
    w.run = [c](obs::TimeSeries* ts) mutable {
      c.timeseries = ts;
      return workloads::ResultBase(workloads::run_allreduce(c));
    };
  } else if (name == "serve-knee") {
    serve::ServeConfig c;
    c.strategy = workloads::Strategy::kGpuTn;
    c.clients = c.servers = c.tenants = tiny ? 2 : 16;
    c.offered_load = 2e6;
    c.read_fraction = 0.5;
    c.requests = tiny ? 200 : 4000;
    c.seed = seed;
    c.quiet = true;
    w.ranks = c.clients + c.servers;
    std::uint64_t footprint =
        c.keyspace * c.value_bytes +
        static_cast<std::uint64_t>(c.tenants * c.window) *
            (4 * c.value_bytes + 512);
    w.dram_bytes = std::max(table2_dram, footprint + (8u << 20));
    w.run = [c](obs::TimeSeries* ts) mutable {
      c.timeseries = ts;
      return workloads::ResultBase(serve::run_serve(c));
    };
  } else if (name == "jacobi-gputn") {
    workloads::JacobiConfig c;
    c.strategy = workloads::Strategy::kGpuTn;
    c.n = tiny ? 64 : 1024;
    c.iterations = tiny ? 4 : 32;
    c.quiet = true;
    w.ranks = c.nodes;
    std::uint64_t grid = 2ull * (c.n + 2) * (c.n + 2) * 8 + 16ull * c.n * 8 +
                         (1 << 20);
    w.dram_bytes = std::max(table2_dram, grid + (4u << 20));
    w.run = [c](obs::TimeSeries* ts) mutable {
      c.timeseries = ts;
      return workloads::ResultBase(workloads::run_jacobi(c));
    };
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

cluster::SystemConfig system_config(const Workload& w) {
  cluster::SystemConfig sys = cluster::SystemConfig::table2();
  sys.dram_bytes = w.dram_bytes;
  // As the GPU-TN runners do; the trigger probe registers far more than the
  // associative table's 16 entries.
  sys.triggered.table.lookup = core::LookupKind::kHash;
  return sys;
}

std::uint64_t sum_counters(const sim::StatRegistry& reg, const char* prefix,
                           const char* suffix) {
  std::uint64_t total = 0;
  std::size_t np = std::strlen(prefix), ns = std::strlen(suffix);
  for (const auto& [key, v] : reg.counters()) {
    if (key.size() > np + ns && key.compare(0, np, prefix) == 0 &&
        key.compare(key.size() - ns, ns, suffix) == 0) {
      total += v;
    }
  }
  return total;
}

std::uint64_t counter_or_zero(const sim::StatRegistry& reg,
                              const std::string& key) {
  auto it = reg.counters().find(key);
  return it == reg.counters().end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// perfbench run: one workload, split at its first and last simulated event.

int cmd_run(const Workload& w) {
  Report rep;
  // A sampler whose interval outlasts the run takes exactly two rows: one
  // when the runner attaches it (cluster built, inputs staged, no event run
  // yet) and one once the last workload event has executed. The host clock
  // read at each row gives the setup/run/tail boundaries.
  std::vector<double> marks;
  obs::TimeSeries ts(sim::sec(1));
  ts.add_gauge("host.clock", [&] {
    marks.push_back(rep.now());
    return std::uint64_t{0};
  });
  double t_call = rep.now();
  workloads::ResultBase res = w.run(&ts);
  double t_return = rep.now();
  if (marks.size() != 2) {
    throw std::runtime_error("expected 2 sampler rows, got " +
                             std::to_string(marks.size()));
  }
  rep.span("workload", "", t_call, t_return);
  rep.span("setup", "workload", t_call, marks[0]);
  rep.span("run", "workload", marks[0], marks[1]);
  rep.span("tail", "workload", marks[1], t_return);
  const sim::StatRegistry& s = res.net_stats;
  rep.flag("correct", res.correct);
  rep.count("sim_time_ps", static_cast<std::uint64_t>(res.total_time));
  rep.count("messages", counter_or_zero(s, "net.messages"));
  rep.count("switch_packets", counter_or_zero(s, "net.switch.packets"));
  rep.count("cpu_ops", sum_counters(s, "util.node", ".cpu.ops"));
  rep.count("gpu_cu_ops", sum_counters(s, "util.node", ".gpu.cu.ops"));
  rep.value("peak_rss_mb", usage_self().maxrss_mb);
  rep.print();
  return 0;
}

// ---------------------------------------------------------------------------
// perfbench build: one set-up constructor, first of its kind in the process.

struct CountingSink : net::MessageSink {
  std::uint64_t delivered = 0;
  void deliver(net::Message&&) override { ++delivered; }
};

int cmd_build(const Workload& w, const std::string& part) {
  Report rep;
  cluster::SystemConfig sys = system_config(w);
  if (part == "cluster") {
    sim::Simulator sim;
    long f0 = usage_self().minor_faults;
    double t0 = rep.now();
    cluster::Cluster c(sim, sys, w.ranks);
    double t1 = rep.now();
    long f1 = usage_self().minor_faults;
    rep.span("cluster.build", "", t0, t1);
    rep.count("page_faults", static_cast<std::uint64_t>(f1 - f0));
  } else if (part == "dram") {
    std::vector<std::unique_ptr<mem::Memory>> nodes;
    nodes.reserve(static_cast<std::size_t>(w.ranks));
    double t0 = rep.now();
    for (int i = 0; i < w.ranks; ++i) {
      nodes.push_back(std::make_unique<mem::Memory>(w.dram_bytes));
    }
    rep.span("mem.dram", "", t0, rep.now());
  } else if (part == "topology") {
    sim::Simulator sim;
    std::vector<CountingSink> sinks(static_cast<std::size_t>(w.ranks));
    double t0 = rep.now();
    net::Fabric fabric(sim, sys.fabric);
    for (CountingSink& s : sinks) fabric.add_node(&s);
    fabric.finalize();
    rep.span("net.topology", "", t0, rep.now());
  } else {
    throw std::invalid_argument("unknown build part '" + part + "'");
  }
  rep.value("peak_rss_mb", usage_self().maxrss_mb);
  rep.print();
  return 0;
}

// ---------------------------------------------------------------------------
// perfbench probes: host nanoseconds per operation of one layer.

constexpr int kReps = 3;

/// Median over kReps of host ns per operation; `once` returns its op count.
template <typename F>
double ns_per_op(Report& rep, const std::string& name, F&& once) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    double t0 = rep.now();
    std::uint64_t ops = once();
    double t1 = rep.now();
    if (ops == 0) throw std::runtime_error(name + ": probe did no work");
    rep.span(name, "probes", t0, t1);
    v.push_back((t1 - t0) * 1e9 / static_cast<double>(ops));
  }
  std::sort(v.begin(), v.end());
  return v[kReps / 2];
}

/// sim: `ranks` self-rescheduling event chains with a mix of short delays.
struct Chain {
  sim::Simulator* sim;
  std::uint64_t left;
  std::uint32_t k;
  void fire() {
    static constexpr sim::Tick kGaps[8] = {
        sim::ns(40), sim::ns(100), sim::ns(220), sim::ns(60),
        sim::ns(30), sim::ns(510), sim::ns(80),  sim::ns(120)};
    if (left == 0) return;
    --left;
    sim->schedule_in(kGaps[k++ & 7], [this] { fire(); });
  }
};

std::uint64_t probe_events(int ranks, std::uint64_t events) {
  sim::Simulator sim;
  std::vector<Chain> chains(static_cast<std::size_t>(ranks));
  for (int i = 0; i < ranks; ++i) {
    chains[static_cast<std::size_t>(i)] =
        Chain{&sim, events / static_cast<std::uint64_t>(ranks),
              static_cast<std::uint32_t>(i)};
    chains[static_cast<std::size_t>(i)].fire();
  }
  return sim.run();
}

/// sim: spawn -> finish of short processes while `ranks` others stay live.
sim::Task<> parked(sim::Event& release) { co_await release.wait(); }
sim::Task<> brief(sim::Simulator& sim) { co_await sim.delay(1); }
sim::Task<> spawner(sim::Simulator& sim, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    sim.spawn(brief(sim), "brief");
    co_await sim.delay(1);
  }
}

std::uint64_t probe_processes(int ranks, std::uint64_t n) {
  sim::Simulator sim;
  sim::Event release(sim);
  for (int i = 0; i < ranks; ++i) sim.spawn(parked(release), "parked");
  sim.spawn(spawner(sim, n), "spawner");
  sim.run();
  release.trigger();
  sim.run();
  if (sim.live_processes() != 0) throw std::runtime_error("process probe hung");
  return n;
}

/// gpu / cpu: every node spins on a flag that another process sets after a
/// fixed simulated delay; polls are recovered from the simulated wait.
sim::Task<> gpu_poller(gpu::WorkGroupCtx& ctx, mem::Addr flag,
                       sim::Tick* waited) {
  sim::Tick t0 = ctx.gpu().simulator().now();
  co_await ctx.wait_value_ge(flag, 1);
  *waited = ctx.gpu().simulator().now() - t0;
}

sim::Task<> cpu_poller(cpu::Cpu& cpu, mem::Addr flag, sim::Tick* waited) {
  sim::Tick t0 = cpu.simulator().now();
  co_await cpu.wait_value_ge(flag, 1);
  *waited = cpu.simulator().now() - t0;
}

sim::Task<> set_after(sim::Simulator& sim, mem::Memory& memory,
                      mem::Addr flag, sim::Tick delay) {
  co_await sim.delay(delay);
  memory.store<std::uint64_t>(flag, 1);
}

std::uint64_t probe_gpu_poll(cluster::Cluster& c, std::uint64_t polls) {
  const gpu::GpuConfig& g = c.node(0).gpu().config();
  sim::Tick round = g.load_system_latency + g.poll_interval;
  sim::Tick delay = sim::us(5) + static_cast<sim::Tick>(
      polls / static_cast<std::uint64_t>(c.size())) * round;
  std::vector<sim::Tick> waited(static_cast<std::size_t>(c.size()), -1);
  std::vector<std::shared_ptr<gpu::KernelRecord>> records;
  for (int i = 0; i < c.size(); ++i) {
    cluster::Node& node = c.node(i);
    mem::Addr flag = node.rt().alloc_flag();
    sim::Tick* out = &waited[static_cast<std::size_t>(i)];
    gpu::KernelDesc k;
    k.name = "poll";
    k.fn = [flag, out](gpu::WorkGroupCtx& ctx) {
      return gpu_poller(ctx, flag, out);
    };
    records.push_back(node.gpu().enqueue_kernel(std::move(k)));
    c.simulator().spawn(set_after(c.simulator(), node.memory(), flag, delay),
                        "set_flag");
  }
  c.simulator().run();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < waited.size(); ++i) {
    if (waited[i] < 0 || !records[i]->done.triggered()) {
      throw std::runtime_error("gpu poll probe: kernel did not finish");
    }
    // n loads and n - 1 poll intervals elapse before the flag is seen.
    total += static_cast<std::uint64_t>((waited[i] + g.poll_interval) / round);
  }
  return total;
}

std::uint64_t probe_cpu_poll(cluster::Cluster& c, std::uint64_t polls) {
  sim::Tick interval = c.node(0).cpu().config().poll_interval;
  sim::Tick delay = static_cast<sim::Tick>(
      polls / static_cast<std::uint64_t>(c.size())) * interval + sim::ns(7);
  std::vector<sim::Tick> waited(static_cast<std::size_t>(c.size()), -1);
  for (int i = 0; i < c.size(); ++i) {
    cluster::Node& node = c.node(i);
    mem::Addr flag = node.rt().alloc_flag();
    c.simulator().spawn(
        cpu_poller(node.cpu(), flag, &waited[static_cast<std::size_t>(i)]),
        "cpu_poll");
    c.simulator().spawn(set_after(c.simulator(), node.memory(), flag, delay),
                        "set_flag");
  }
  c.simulator().run();
  std::uint64_t total = 0;
  for (sim::Tick t : waited) {
    if (t < 0) throw std::runtime_error("cpu poll probe: waiter hung");
    total += static_cast<std::uint64_t>(t / interval);
  }
  return total;
}

/// core: per node, register `per_node` triggered 8-byte puts to the next
/// node, then store one tag to the trigger address every 200 ns (paced, so
/// few puts are in flight at once, as in the workloads); ends when every
/// fired put has landed.
struct TriggerStorer {
  sim::Simulator* sim;
  mem::Memory* memory;
  mem::Addr trigger;
  std::uint64_t tag;
  std::uint64_t end;
  void fire() {
    memory->mmio_store(trigger, tag);
    if (++tag < end) sim->schedule_in(sim::ns(200), [this] { fire(); });
  }
};

std::uint64_t probe_triggers(cluster::Cluster& c, std::uint64_t per_node,
                             std::uint64_t& next_tag) {
  std::uint64_t before = c.fabric().messages_sent();
  std::vector<mem::Addr> dst(static_cast<std::size_t>(c.size()));
  for (int i = 0; i < c.size(); ++i) {
    dst[static_cast<std::size_t>(i)] = c.node(i).memory().alloc(64);
  }
  std::vector<TriggerStorer> storers;
  storers.reserve(static_cast<std::size_t>(c.size()));
  for (int i = 0; i < c.size(); ++i) {
    cluster::Node& node = c.node(i);
    int peer = (i + 1) % c.size();
    nic::PutDesc put;
    put.target = peer;
    put.local_addr = dst[static_cast<std::size_t>(i)];
    put.bytes = 8;
    put.remote_addr = dst[static_cast<std::size_t>(peer)];
    for (std::uint64_t j = 0; j < per_node; ++j) {
      node.triggered().register_put(next_tag + j, 1, put);
    }
    storers.push_back(TriggerStorer{&c.simulator(), &node.memory(),
                                    node.triggered().trigger_address(),
                                    next_tag, next_tag + per_node});
  }
  next_tag += per_node;
  for (TriggerStorer& s : storers) s.fire();
  c.simulator().run();
  std::uint64_t fired = c.fabric().messages_sent() - before;
  if (fired != per_node * static_cast<std::uint64_t>(c.size())) {
    throw std::runtime_error("trigger probe: not every put fired");
  }
  return fired;
}

/// nic: `n` back-to-back rt::NodeRuntime::put calls from node 0 to the
/// last node; ends when the last payload has deposited.
sim::Task<> put_loop(rt::NodeRuntime& rt, nic::PutDesc put, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) co_await rt.put(put);
}

std::uint64_t probe_puts(cluster::Cluster& c, std::uint64_t n) {
  int peer = c.size() - 1;
  nic::PutDesc put;
  put.target = peer;
  put.local_addr = c.node(0).memory().alloc(256);
  put.bytes = 256;
  put.remote_addr = c.node(peer).memory().alloc(256);
  put.remote_flag = c.node(peer).rt().alloc_flag();
  std::uint64_t before = c.fabric().messages_sent();
  c.simulator().spawn(put_loop(c.node(0).rt(), put, n), "put_loop");
  c.simulator().run();
  if (c.fabric().messages_sent() - before != n) {
    throw std::runtime_error("put probe: not every put was sent");
  }
  return n;
}

/// nic: node 1 posts `ranks` receives, node 0 sends their tags in reverse
/// order so each arrival is matched against the whole posted list.
std::uint64_t probe_match(cluster::Cluster& c, std::uint64_t rounds) {
  cluster::Node& a = c.node(0);
  cluster::Node& b = c.node(1);
  std::uint64_t ranks = static_cast<std::uint64_t>(c.size());
  mem::Addr sbuf = a.memory().alloc(64);
  mem::Addr rbuf = b.memory().alloc(64 * ranks);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (std::uint64_t t = 0; t < ranks; ++t) {
      nic::RecvDesc recv;
      recv.src = a.id();
      recv.tag = t;
      recv.local_addr = rbuf + 64 * t;
      recv.max_bytes = 64;
      b.nic().post_recv(recv);
    }
    for (std::uint64_t t = ranks; t-- > 0;) {
      nic::SendDesc send;
      send.target = b.id();
      send.local_addr = sbuf;
      send.bytes = 64;
      send.tag = t;
      a.nic().ring_doorbell(send);
    }
    c.simulator().run();
  }
  if (b.nic().posted_recvs() != 0 || b.nic().unexpected_msgs() != 0) {
    throw std::runtime_error("match probe: receives left unmatched");
  }
  return rounds * ranks;
}

/// net: `n` 256-byte messages between pseudo-random node pairs, one every
/// 10 ns, through a bare Fabric of the workload's size.
struct Sender {
  sim::Simulator* sim;
  net::Fabric* fabric;
  int ranks;
  std::uint64_t left;
  std::uint64_t lcg;
  void fire() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    int src = static_cast<int>((lcg >> 33) % static_cast<std::uint64_t>(ranks));
    int dst = static_cast<int>((lcg >> 13) % static_cast<std::uint64_t>(ranks - 1));
    net::Message m;
    m.src = src;
    m.dst = dst >= src ? dst + 1 : dst;
    m.kind = 1;
    m.payload.resize(256);
    fabric->send(std::move(m));
    if (--left > 0) sim->schedule_in(sim::ns(10), [this] { fire(); });
  }
};

std::uint64_t probe_hops(const Workload& w, const cluster::SystemConfig& sys,
                         std::uint64_t n) {
  sim::Simulator sim;
  std::vector<CountingSink> sinks(static_cast<std::size_t>(w.ranks));
  net::Fabric fabric(sim, sys.fabric);
  for (CountingSink& s : sinks) fabric.add_node(&s);
  fabric.finalize();
  Sender sender{&sim, &fabric, w.ranks, n, 12345};
  sender.fire();
  sim.run();
  std::uint64_t got = 0;
  for (const CountingSink& s : sinks) got += s.delivered;
  if (got != n) throw std::runtime_error("hop probe: messages lost");
  return n;
}

/// mem: Jacobi-shaped 5-point stencil sweeps (4 loads + 1 store per cell)
/// over a pre-generated address stream, on a Memory of the workload's size;
/// `passes` repeats the stream.
std::uint64_t probe_memory(mem::Memory& m, const std::vector<mem::Addr>& addrs,
                           int passes, double& sink) {
  double acc = 0.0;
  for (int p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i + 5 <= addrs.size(); i += 5) {
      double v = m.load<double>(addrs[i]) + m.load<double>(addrs[i + 1]) +
                 m.load<double>(addrs[i + 2]) + m.load<double>(addrs[i + 3]);
      m.store<double>(addrs[i + 4], 0.25 * v + 1.0);
      acc += v;
    }
  }
  sink += acc;
  return static_cast<std::uint64_t>(passes) * addrs.size();
}

std::vector<mem::Addr> stencil_stream(mem::Memory& m, int edge) {
  std::uint64_t cells = static_cast<std::uint64_t>(edge) * edge;
  mem::Addr cur = m.alloc(cells * 8);
  mem::Addr nxt = m.alloc(cells * 8);
  auto at = [edge](mem::Addr base, int i, int j) {
    return base + 8 * (static_cast<std::uint64_t>((i + edge) % edge) * edge +
                       static_cast<std::uint64_t>((j + edge) % edge));
  };
  // Two sweeps, cur -> nxt then nxt -> cur, so loads see earlier stores.
  std::vector<mem::Addr> addrs;
  addrs.reserve(cells * 10);
  for (auto [src, dst] : {std::pair{cur, nxt}, std::pair{nxt, cur}}) {
    for (int i = 0; i < edge; ++i) {
      for (int j = 0; j < edge; ++j) {
        addrs.insert(addrs.end(), {at(src, i - 1, j), at(src, i + 1, j),
                                   at(src, i, j - 1), at(src, i, j + 1),
                                   at(dst, i, j)});
      }
    }
  }
  return addrs;
}

int cmd_probes(const Workload& w, bool tiny) {
  Report rep;
  const std::uint64_t scale = tiny ? 20 : 1;
  cluster::SystemConfig sys = system_config(w);
  double t0 = rep.now();
  sim::Simulator sim;
  cluster::Cluster c(sim, sys, w.ranks);
  rep.span("probes.cluster", "probes", t0, rep.now());

  rep.value("sim.event_ns", ns_per_op(rep, "probe.sim.event", [&] {
    return probe_events(w.ranks, 2'000'000 / scale);
  }));
  rep.value("sim.process_ns", ns_per_op(rep, "probe.sim.process", [&] {
    return probe_processes(w.ranks, 400'000 / scale);
  }));
  rep.value("gpu.poll_ns", ns_per_op(rep, "probe.gpu.poll", [&] {
    return probe_gpu_poll(c, 200'000 / scale);
  }));
  rep.value("cpu.poll_ns", ns_per_op(rep, "probe.cpu.poll", [&] {
    return probe_cpu_poll(c, 400'000 / scale);
  }));
  std::uint64_t next_tag = 1;
  std::uint64_t per_node =
      std::max<std::uint64_t>(1, 20'000 / scale / static_cast<std::uint64_t>(w.ranks));
  rep.value("core.trigger_ns", ns_per_op(rep, "probe.core.trigger", [&] {
    return probe_triggers(c, per_node, next_tag);
  }));
  rep.value("nic.put_ns", ns_per_op(rep, "probe.nic.put", [&] {
    return probe_puts(c, 20'000 / scale);
  }));
  std::uint64_t rounds =
      std::max<std::uint64_t>(1, 20'000 / scale / static_cast<std::uint64_t>(w.ranks));
  rep.value("nic.match_ns", ns_per_op(rep, "probe.nic.match", [&] {
    return probe_match(c, rounds);
  }));
  rep.value("net.hop_ns", ns_per_op(rep, "probe.net.hop", [&] {
    return probe_hops(w, sys, 100'000 / scale);
  }));
  mem::Memory m(w.dram_bytes);
  std::vector<mem::Addr> addrs = stencil_stream(m, tiny ? 128 : 512);
  double sink = 0.0;
  rep.value("mem.access_ns", ns_per_op(rep, "probe.mem.access", [&] {
    return probe_memory(m, addrs, tiny ? 1 : 4, sink);
  }));
  rep.value("mem.checksum", sink);
  rep.span("probes", "", t0, rep.now());
  rep.print();
  return 0;
}

int usage() {
  std::fputs(
      "usage: perfbench run <workload> [--seed N] [--tiny]\n"
      "       perfbench build <workload> cluster|dram|topology [--tiny]\n"
      "       perfbench probes <workload> [--tiny]\n"
      "workloads: allreduce-gputn serve-knee jacobi-gputn\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool tiny = false;
  std::uint64_t seed = 1;
  std::vector<std::string> pos;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--tiny") {
        tiny = true;
      } else if (args[i] == "--seed" && i + 1 < args.size()) {
        seed = std::stoull(args[++i]);
      } else {
        pos.push_back(args[i]);
      }
    }
    if (pos.size() < 2) return usage();
    Workload w = make_workload(pos[1], seed, tiny);
    if (pos[0] == "run" && pos.size() == 2) return cmd_run(w);
    if (pos[0] == "build" && pos.size() == 3) return cmd_build(w, pos[2]);
    if (pos[0] == "probes" && pos.size() == 2) return cmd_probes(w, tiny);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
