#include "serve/serve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mem/spin_wait.hpp"
#include "nic/qp.hpp"
#include "serve/zipf.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"

namespace gputn::serve {

namespace {

/// Value signature: the first 8 bytes of every stored value are this
/// key-derived stamp, preserved by puts, so gets can verify end to end.
std::uint64_t key_sig(std::uint64_t key) {
  std::uint64_t x = key * 0x9e3779b97f4a7c15ull + 0xd1b54a32d192ed03ull;
  x ^= x >> 31;
  return x * 0xbf58476d1ce4e5b9ull;
}

/// Unique trigger tag per (server slot, request round); threshold is always
/// 1, so the trigger table's hash lookup stays O(1) per fire.
core::Tag slot_tag(int slot, std::uint64_t round) {
  return (static_cast<core::Tag>(slot) << 32) | round;
}

/// Flight-recorder op tag for the put (server, slot, round): the client's
/// request put and the server's response put carry the same tag, so the
/// analyzer sees one round-trip op. slot_tag() is only unique per server,
/// hence the server-qualified encoding; the top bits keep put tags disjoint
/// from get tags (and from 0 = untagged).
std::uint64_t put_op_tag(int s, int slot, std::uint64_t round) {
  return (2ull << 62) | (static_cast<std::uint64_t>(s) << 44) |
         (static_cast<std::uint64_t>(slot) << 24) | round;
}

/// One pre-generated open-loop request.
struct Req {
  sim::Tick at = 0;  ///< intended arrival, relative to traffic start
  bool is_get = true;
  int server = 0;
  std::uint64_t key = 0;
  std::uint64_t round = 0;  ///< put sequence number on its (slot, server)
};

/// Per-server request slots and store shard.
struct ServerState {
  mem::Addr value_slab = 0;
  mem::Addr req_slab = 0;
  mem::Addr staging_slab = 0;
  std::vector<mem::Addr> req_flag;       ///< per slot
  std::vector<std::uint64_t> expected;   ///< puts per slot (schedule total)
  std::vector<std::uint64_t> processed;  ///< puts applied so far
  std::vector<int> active;               ///< slots with expected > 0
};

/// Per-(tenant, worker) client-side buffers. The get buffer/flag and the
/// put request stage are shared across servers (a worker has at most one
/// request outstanding), but the put response landing zone is per *server*:
/// response flag values are the (worker, server) round sequence, and a
/// shared flag would let server A's round-r response satisfy a wait for
/// server B's round r.
struct ClientSlot {
  mem::Addr req_stage = 0;
  mem::Addr get_buf = 0;
  mem::Addr get_flag = 0;
  /// Gets this slot has issued: the NIC raises get_flag to the count.
  std::uint64_t gets = 0;
  std::vector<mem::Addr> resp_buf;   ///< per server
  std::vector<mem::Addr> resp_flag;  ///< per server
};

/// Completion multiplexer: one poller coroutine per client node scans all
/// outstanding flag waits at the CPU poll interval (epoll-style), so client
/// CPU time scales with nodes, not with outstanding requests. The scan is
/// one event-free wait on every waiter's flag (mem::MultiSpinWait).
struct Reactor {
  Reactor(sim::Simulator& sim, mem::Memory& memory)
      : scan(sim, memory), cond(sim) {}
  struct Waiter {
    mem::Addr addr;
    std::uint64_t value;
    sim::Event* ev;
  };
  std::vector<Waiter> waiters;
  mem::MultiSpinWait scan;
  sim::Condition cond;
};

struct Workspace {
  Workspace(const cluster::SystemConfig& sys, const ServeConfig& cfg)
      : cluster(sim, sys, cfg.clients + cfg.servers),
        config(cfg) {
    slot_bytes = (16 + cfg.value_bytes + 63) / 64 * 64;
    nslots = cfg.tenants * cfg.window;
    generate_schedule();
    build_memory();
    // Client-side machinery is per client node (reactor, traffic-release
    // event, SLO reporter, error counter). The per-node SLO reporters are
    // merged exactly (disjoint tenant sets) after the run.
    for (int c = 0; c < cfg.clients; ++c) {
      reactors.push_back(std::make_unique<Reactor>(
          sim, cluster.node(c).memory()));
      start.push_back(std::make_unique<sim::Event>(sim));
      slo_node.push_back(std::make_unique<SloReporter>(cfg.tenants, cfg.slo));
    }
    errors_node.assign(static_cast<std::size_t>(cfg.clients), 0);
    get_tag.assign(static_cast<std::size_t>(cfg.tenants), 0);
    nic::QpConfig qpc{cfg.qp_batch, cfg.qp_flush_timeout};
    for (int t = 0; t < cfg.tenants; ++t) {
      qps.push_back(std::make_unique<nic::Qp>(
          sim, cluster.node(client_of(t)).nic(), qpc));
    }
  }

  int client_of(int tenant) const { return tenant % config.clients; }
  int server_node(int s) const { return config.clients + s; }
  int slot_of(int tenant, int worker) const {
    return tenant * config.window + worker;
  }
  mem::Addr value_addr(int s, std::uint64_t key) const {
    return srv[static_cast<std::size_t>(s)].value_slab +
           (key / static_cast<std::uint64_t>(config.servers)) *
               config.value_bytes;
  }
  mem::Addr slot_addr(int s, int slot) const {
    return srv[static_cast<std::size_t>(s)].req_slab +
           static_cast<std::uint64_t>(slot) * slot_bytes;
  }
  mem::Addr staging_addr(int s, int slot) const {
    return srv[static_cast<std::size_t>(s)].staging_slab +
           static_cast<std::uint64_t>(slot) * config.value_bytes;
  }

  /// Pre-draw every request from the seed: inter-arrival (exponential),
  /// op kind, key — in that fixed order — so the schedule is a pure
  /// function of (seed, tenant) and runs are bit-identical.
  void generate_schedule() {
    Zipf zipf(config.keyspace, config.zipf);
    sched.resize(static_cast<std::size_t>(config.tenants));
    for (int t = 0; t < config.tenants; ++t) {
      sim::Rng rng(config.seed * 0x9e3779b97f4a7c15ull +
                   static_cast<std::uint64_t>(t) + 1);
      // round counter per (worker, server) — put responses for one slot
      // carry strictly increasing flag values.
      std::vector<std::uint64_t> rounds(
          static_cast<std::size_t>(config.window * config.servers), 0);
      double at_ps = 0.0;
      auto& reqs = sched[static_cast<std::size_t>(t)];
      reqs.reserve(static_cast<std::size_t>(config.requests));
      for (int i = 0; i < config.requests; ++i) {
        double u = rng.uniform();
        at_ps += -std::log(1.0 - u) * 1e12 / config.offered_load;
        Req r;
        r.at = static_cast<sim::Tick>(at_ps);
        r.is_get = rng.uniform() < config.read_fraction;
        r.key = zipf.sample(rng.uniform());
        r.server = static_cast<int>(
            r.key % static_cast<std::uint64_t>(config.servers));
        if (!r.is_get) {
          int w = i % config.window;
          r.round = ++rounds[static_cast<std::size_t>(
              w * config.servers + r.server)];
        }
        reqs.push_back(r);
      }
    }
  }

  void build_memory() {
    srv.resize(static_cast<std::size_t>(config.servers));
    std::uint64_t keys_per_shard =
        config.keyspace / static_cast<std::uint64_t>(config.servers) + 1;
    for (int s = 0; s < config.servers; ++s) {
      auto& node = cluster.node(server_node(s));
      auto& st = srv[static_cast<std::size_t>(s)];
      st.value_slab = node.memory().alloc(keys_per_shard * config.value_bytes);
      st.req_slab =
          node.memory().alloc(static_cast<std::uint64_t>(nslots) * slot_bytes);
      st.staging_slab = node.memory().alloc(
          static_cast<std::uint64_t>(nslots) * config.value_bytes);
      st.expected.assign(static_cast<std::size_t>(nslots), 0);
      st.processed.assign(static_cast<std::size_t>(nslots), 0);
      for (int slot = 0; slot < nslots; ++slot) {
        st.req_flag.push_back(node.rt().alloc_flag());
      }
    }
    // Seed every key's value with its signature (version 0).
    for (std::uint64_t k = 0; k < config.keyspace; ++k) {
      int s = static_cast<int>(k % static_cast<std::uint64_t>(config.servers));
      auto& memory = cluster.node(server_node(s)).memory();
      memory.store<std::uint64_t>(value_addr(s, k), key_sig(k));
      memory.store<std::uint64_t>(value_addr(s, k) + 8, 0);
    }
    // Per-slot put totals (the kernels' / proxies' exit condition).
    for (int t = 0; t < config.tenants; ++t) {
      for (std::size_t i = 0; i < sched[static_cast<std::size_t>(t)].size();
           ++i) {
        const Req& r = sched[static_cast<std::size_t>(t)][i];
        if (r.is_get) continue;
        int slot = slot_of(t, static_cast<int>(i) % config.window);
        ++srv[static_cast<std::size_t>(r.server)]
              .expected[static_cast<std::size_t>(slot)];
      }
    }
    for (auto& st : srv) {
      for (int slot = 0; slot < nslots; ++slot) {
        if (st.expected[static_cast<std::size_t>(slot)] > 0) {
          st.active.push_back(slot);
        }
      }
    }
    cli.resize(static_cast<std::size_t>(nslots));
    for (int t = 0; t < config.tenants; ++t) {
      auto& node = cluster.node(client_of(t));
      for (int w = 0; w < config.window; ++w) {
        auto& c = cli[static_cast<std::size_t>(slot_of(t, w))];
        c.req_stage = node.memory().alloc(slot_bytes);
        c.get_buf = node.memory().alloc(config.value_bytes);
        c.get_flag = node.rt().alloc_flag();
        for (int s = 0; s < config.servers; ++s) {
          c.resp_buf.push_back(node.memory().alloc(config.value_bytes));
          c.resp_flag.push_back(node.rt().alloc_flag());
        }
      }
    }
  }

  /// The response put for (server s, slot, round) — identical descriptor on
  /// both strategies; only who fires it differs.
  nic::PutDesc response_put(int s, int slot, std::uint64_t round) {
    int t = slot / config.window;
    nic::PutDesc p;
    p.target = client_of(t);
    p.local_addr = staging_addr(s, slot);
    p.bytes = config.value_bytes;
    p.remote_addr =
        cli[static_cast<std::size_t>(slot)].resp_buf[static_cast<std::size_t>(s)];
    p.remote_flag = cli[static_cast<std::size_t>(slot)]
                        .resp_flag[static_cast<std::size_t>(s)];
    p.flag_value = round;
    p.op_tag = put_op_tag(s, slot, round);
    p.tenant = t;
    return p;
  }

  /// Apply one put functionally: bump the stored version, stage the
  /// response (signature echo + round). Timing is charged by the caller.
  void apply_put(int s, int slot, std::uint64_t key, std::uint64_t round,
                 mem::Memory& memory) {
    memory.store<std::uint64_t>(value_addr(s, key) + 8, round);
    memory.store<std::uint64_t>(staging_addr(s, slot), key_sig(key));
    memory.store<std::uint64_t>(staging_addr(s, slot) + 8, round);
  }

  sim::Task<> wait_flag(int client_node, mem::Addr addr, std::uint64_t value) {
    auto& node = cluster.node(client_node);
    if (node.memory().load<std::uint64_t>(addr) >= value) co_return;
    sim::Event ev(sim);
    auto& r = *reactors[static_cast<std::size_t>(client_node)];
    r.waiters.push_back({addr, value, &ev});
    // A parked scan reads the new flag from its next poll on.
    if (r.scan.parked()) {
      r.scan.add(addr, value, node.cpu().config().poll_interval);
    }
    r.cond.notify_all();
    co_await ev.wait();
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  ServeConfig config;
  /// Traffic release after server setup, one latch per client node (all
  /// triggered at the same tick, scheduled by the setup barrier).
  std::vector<std::unique_ptr<sim::Event>> start;
  sim::Tick traffic_start = 0;
  std::uint64_t slot_bytes = 0;
  int nslots = 0;
  std::vector<std::vector<Req>> sched;  ///< [tenant]
  std::vector<ServerState> srv;
  std::vector<ClientSlot> cli;
  std::vector<std::unique_ptr<Reactor>> reactors;     ///< per client node
  std::vector<std::unique_ptr<SloReporter>> slo_node; ///< per client node
  std::vector<std::unique_ptr<nic::Qp>> qps;          ///< per tenant
  std::vector<std::uint64_t> errors_node;             ///< per client node
  /// Monotonic get op tag per tenant (tenant-qualified: a tenant's
  /// requests issue in its client node's simulation order): pairs each get
  /// request with its reply in the flight recorder.
  std::vector<std::uint64_t> get_tag;
};

sim::Task<> reactor_loop(Workspace& w, int client_node) {
  auto& node = w.cluster.node(client_node);
  auto& cpu = node.cpu();
  auto& r = *w.reactors[static_cast<std::size_t>(client_node)];
  for (;;) {
    if (r.waiters.empty()) {
      co_await r.cond.wait();
      continue;
    }
    r.scan.clear();
    for (const auto& wt : r.waiters) {
      r.scan.add(wt.addr, wt.value, cpu.config().poll_interval);
    }
    co_await cpu.wait_any(r.scan);
    for (std::size_t i = 0; i < r.waiters.size();) {
      const auto& wt = r.waiters[i];
      if (node.memory().load<std::uint64_t>(wt.addr) >= wt.value) {
        wt.ev->trigger();
        r.waiters[i] = r.waiters.back();
        r.waiters.pop_back();
      } else {
        ++i;
      }
    }
  }
}

/// One open-loop worker: issues this (tenant, worker)'s share of the
/// schedule. Latency is measured from the request's *intended* arrival, so
/// time spent waiting for the worker (window exhausted) or for the server
/// counts against the SLO — the open-loop queueing property.
sim::Task<> client_worker(Workspace& w, int t, int wk) {
  const ServeConfig& cfg = w.config;
  const int cn = w.client_of(t);
  auto& node = w.cluster.node(cn);
  auto& csim = w.sim;
  auto& cpu = node.cpu();
  auto& memory = node.memory();
  const auto& reqs = w.sched[static_cast<std::size_t>(t)];
  const int slot = w.slot_of(t, wk);
  auto& c = w.cli[static_cast<std::size_t>(slot)];

  co_await w.start[static_cast<std::size_t>(cn)]->wait();
  for (std::size_t i = static_cast<std::size_t>(wk); i < reqs.size();
       i += static_cast<std::size_t>(cfg.window)) {
    const Req& rq = reqs[i];
    sim::Tick at = w.traffic_start + rq.at;
    if (csim.now() < at) co_await csim.delay(at - csim.now());
    bool ok = false;
    if (rq.is_get) {
      co_await cpu.compute(cpu.config().post_cost);
      nic::GetDesc g;
      g.target = w.server_node(rq.server);
      g.local_addr = c.get_buf;
      g.bytes = cfg.value_bytes;
      g.remote_addr = w.value_addr(rq.server, rq.key);
      g.local_flag = c.get_flag;
      g.flag_value = ++c.gets;
      g.op_tag = (1ull << 62) | (static_cast<std::uint64_t>(t) << 40) |
                 ++w.get_tag[static_cast<std::size_t>(t)];
      g.tenant = t;
      w.qps[static_cast<std::size_t>(t)]->post(g);
      co_await w.wait_flag(cn, c.get_flag, c.gets);
      ok = memory.load<std::uint64_t>(c.get_buf) == key_sig(rq.key);
    } else {
      memory.store<std::uint64_t>(c.req_stage, rq.key);
      memory.store<std::uint64_t>(c.req_stage + 8, rq.round);
      co_await cpu.compute(cpu.config().post_cost);
      nic::PutDesc p;
      p.target = w.server_node(rq.server);
      p.local_addr = c.req_stage;
      p.bytes = w.slot_bytes;
      p.remote_addr = w.slot_addr(rq.server, slot);
      p.remote_flag = w.srv[static_cast<std::size_t>(rq.server)]
                          .req_flag[static_cast<std::size_t>(slot)];
      p.flag_value = rq.round;
      p.op_tag = put_op_tag(rq.server, slot, rq.round);
      p.tenant = t;
      w.qps[static_cast<std::size_t>(t)]->post(p);
      auto sv = static_cast<std::size_t>(rq.server);
      co_await w.wait_flag(cn, c.resp_flag[sv], rq.round);
      ok = memory.load<std::uint64_t>(c.resp_buf[sv]) == key_sig(rq.key) &&
           memory.load<std::uint64_t>(c.resp_buf[sv] + 8) == rq.round;
    }
    if (!ok) ++w.errors_node[static_cast<std::size_t>(cn)];
    w.slo_node[static_cast<std::size_t>(cn)]->record(t, csim.now() - at,
                                                     rq.is_get,
                                                     cfg.value_bytes);
  }
}

/// CPU-driven server: one host proxy polls the request slots and posts
/// every response itself. ~(compute + post) of serial core time per put
/// bounds throughput — the critical-path CPU cost GPU-TN removes.
sim::Task<> cpu_server(Workspace& w, int s, sim::Tick& ready_at) {
  auto& node = w.cluster.node(w.server_node(s));
  auto& cpu = node.cpu();
  auto& memory = node.memory();
  auto& st = w.srv[static_cast<std::size_t>(s)];
  ready_at = w.sim.now();
  std::uint64_t remaining = 0;
  for (int slot : st.active) {
    remaining += st.expected[static_cast<std::size_t>(slot)];
  }
  while (remaining > 0) {
    bool progress = false;
    for (int slot : st.active) {
      auto sl = static_cast<std::size_t>(slot);
      if (st.processed[sl] >= st.expected[sl]) continue;
      std::uint64_t want = st.processed[sl] + 1;
      if (memory.load<std::uint64_t>(st.req_flag[sl]) < want) continue;
      std::uint64_t key =
          memory.load<std::uint64_t>(w.slot_addr(s, slot));
      co_await cpu.compute(w.config.request_compute);
      w.apply_put(s, slot, key, want, memory);
      co_await node.rt().put_nb(w.response_put(s, slot, want));
      st.processed[sl] = want;
      --remaining;
      progress = true;
    }
    if (!progress) co_await cpu.compute(cpu.config().poll_interval);
  }
}

/// GPU-TN server: launch the persistent serving kernel, then pre-register
/// one triggered response put per (slot, round) — round-major so early
/// rounds are armed first; relaxed synchronization (§3.2) covers any store
/// that races a late registration. Posting cost is amortized per 64-entry
/// descriptor-ring refill. Traffic is released only after setup, so the
/// serving phase itself never touches the host CPU.
sim::Task<> gputn_server(Workspace& w, int s, sim::Tick& ready_at) {
  auto& node = w.cluster.node(w.server_node(s));
  auto& st = w.srv[static_cast<std::size_t>(s)];
  if (st.active.empty()) {
    ready_at = w.sim.now();
    co_return;
  }

  mem::Addr trig = node.rt().trigger_addr();
  const sim::Tick compute = w.config.request_compute;
  gpu::KernelDesc k;
  k.name = "serve-s" + std::to_string(s);
  int cu_slots =
      node.gpu().config().cu_count * node.gpu().config().max_wgs_per_cu;
  k.num_wgs = std::min(static_cast<int>(st.active.size()), cu_slots);
  k.fn = [ws = &w, s, trig, compute](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
    auto& state = ws->srv[static_cast<std::size_t>(s)];
    std::vector<int> mine;
    for (std::size_t i = static_cast<std::size_t>(ctx.wg_id());
         i < state.active.size();
         i += static_cast<std::size_t>(ctx.num_wgs())) {
      mine.push_back(state.active[i]);
    }
    // Round-robin over the live slots, one system-scope acquire load each
    // (the load doubles as the poll pacing), starting just after the slot
    // last served; finished slots are skipped at no cost. With n live
    // slots, the k-th (from 1) is read k loads in and every n loads after:
    // one event-free wait on all of them.
    const sim::Tick load = ctx.gpu().config().load_system_latency;
    mem::MultiSpinWait scan(ctx.gpu().simulator(), ctx.mem());
    std::vector<std::size_t> live;  // positions in `mine`, in scan order
    std::size_t next = 0;
    for (;;) {
      scan.clear();
      live.clear();
      for (std::size_t k = 0; k < mine.size(); ++k) {
        std::size_t p = (next + k) % mine.size();
        auto sl = static_cast<std::size_t>(mine[p]);
        if (state.processed[sl] >= state.expected[sl]) continue;
        live.push_back(p);
        scan.add(state.req_flag[sl], state.processed[sl] + 1,
                 static_cast<sim::Tick>(live.size()) * load);
      }
      if (live.empty()) break;
      std::size_t p = live[co_await scan.wait(
          static_cast<sim::Tick>(live.size()) * load)];
      int slot = mine[p];
      auto sl = static_cast<std::size_t>(slot);
      std::uint64_t want = state.processed[sl] + 1;
      std::uint64_t key =
          ctx.load_data<std::uint64_t>(ws->slot_addr(s, slot));
      co_await ctx.compute(compute);
      ws->apply_put(s, slot, key, want, ctx.mem());
      ctx.mark_dirty();
      co_await ctx.fence_system();
      co_await ctx.store_system(trig, slot_tag(slot, want));
      state.processed[sl] = want;
      next = p + 1;
    }
  };
  auto rec = co_await node.rt().launch(std::move(k));

  auto& cpu = node.cpu();
  std::uint64_t max_round = 0;
  for (int slot : st.active) {
    max_round =
        std::max(max_round, st.expected[static_cast<std::size_t>(slot)]);
  }
  int in_batch = 0;
  for (std::uint64_t round = 1; round <= max_round; ++round) {
    for (int slot : st.active) {
      if (round > st.expected[static_cast<std::size_t>(slot)]) continue;
      if (in_batch == 0) co_await cpu.compute(cpu.config().post_cost);
      in_batch = (in_batch + 1) % 64;
      node.triggered().register_put(slot_tag(slot, round), 1,
                                    w.response_put(s, slot, round));
    }
  }
  ready_at = w.sim.now();
  co_await rec->done.wait();
}

}  // namespace

ServeResult run_serve(const ServeConfig& cfg,
                      const cluster::SystemConfig& sys) {
  if (cfg.strategy != workloads::Strategy::kCpu &&
      cfg.strategy != workloads::Strategy::kGpuTn) {
    throw std::invalid_argument(
        "serve: strategy must be CPU (host proxy) or GPU-TN");
  }
  if (cfg.clients < 1 || cfg.servers < 1 || cfg.tenants < 1 ||
      cfg.window < 1 || cfg.requests < 1) {
    throw std::invalid_argument("serve: counts must be >= 1");
  }
  if (cfg.nodes != 0 && cfg.nodes != cfg.clients + cfg.servers) {
    throw std::invalid_argument(
        "serve: node count is --clients + --servers; do not pass --nodes");
  }
  if (cfg.keyspace < 1) throw std::invalid_argument("serve: empty keyspace");
  if (cfg.value_bytes < 16) {
    throw std::invalid_argument("serve: value_bytes must be >= 16");
  }
  if (cfg.read_fraction < 0.0 || cfg.read_fraction > 1.0) {
    throw std::invalid_argument("serve: read_fraction outside [0, 1]");
  }
  if (cfg.offered_load <= 0.0) {
    throw std::invalid_argument("serve: offered_load must be > 0");
  }

  cluster::SystemConfig adjusted = sys;
  std::uint64_t footprint =
      cfg.keyspace * cfg.value_bytes +
      static_cast<std::uint64_t>(cfg.tenants * cfg.window) *
          (4 * cfg.value_bytes + 512);
  adjusted.dram_bytes = std::max(adjusted.dram_bytes, footprint + (8u << 20));
  if (cfg.strategy == workloads::Strategy::kGpuTn) {
    // One unique tag per (slot, round) — far beyond the associative CAM.
    adjusted.triggered.table.lookup = core::LookupKind::kHash;
  }
  if (cfg.nic_rate_limit > 0.0) {
    adjusted.nic.rate_limit.ops_per_sec = cfg.nic_rate_limit;
    adjusted.nic.rate_limit.burst = cfg.nic_rate_burst;
  }

  Workspace w(adjusted, cfg);
  workloads::attach_observers(w.cluster, cfg);

  for (int c = 0; c < cfg.clients; ++c) {
    w.sim.spawn(reactor_loop(w, c), "serve-reactor");
  }
  std::vector<sim::Task<>> workers;
  std::vector<sim::Tick> ready(static_cast<std::size_t>(cfg.servers), -1);
  for (int s = 0; s < cfg.servers; ++s) {
    workers.push_back(
        cfg.strategy == workloads::Strategy::kGpuTn
            ? gputn_server(w, s, ready[static_cast<std::size_t>(s)])
            : cpu_server(w, s, ready[static_cast<std::size_t>(s)]));
  }
  for (int t = 0; t < cfg.tenants; ++t) {
    for (int wk = 0; wk < cfg.window; ++wk) {
      workers.push_back(client_worker(w, t, wk));
    }
  }
  // The reactors are not ranks: they idle forever and are reaped at
  // teardown.
  sim::Tick finished_at = -1;
  workloads::spawn_ranks(w.sim, std::move(workers), finished_at);

  // Phase A — server setup, run tick by tick until every server is ready,
  // so the clock stops at the traffic-release tick max(ready).
  auto all_ready = [&] {
    for (sim::Tick t : ready) {
      if (t < 0) return false;
    }
    return true;
  };
  while (!all_ready()) {
    sim::Tick g = w.sim.next_pending_time();
    if (g >= sim::sec(10)) {
      throw std::runtime_error("serve: server setup never completed");
    }
    w.sim.run_until(g);
  }
  sim::Tick t_rel = 0;
  for (sim::Tick t : ready) t_rel = std::max(t_rel, t);
  w.traffic_start = t_rel;
  // Phase B — release traffic: trigger every client node's start latch at
  // the same tick.
  for (int c = 0; c < cfg.clients; ++c) {
    sim::Event* ev = w.start[static_cast<std::size_t>(c)].get();
    w.sim.schedule_at(t_rel, [ev] { ev->trigger(); });
  }
  w.sim.run_until(sim::sec(10));
  if (finished_at < 0) {
    throw std::runtime_error("serve: deadlocked (offered load "
                             "unserviceable within the 10 s simulation "
                             "budget)");
  }
  w.cluster.flush_flight();

  ServeResult res;
  res.strategy = cfg.strategy;
  res.nodes = cfg.clients + cfg.servers;
  res.label = "serve";
  res.mode = workloads::strategy_name(cfg.strategy);
  res.detail = std::to_string(cfg.tenants) + " tenants x " +
               std::to_string(cfg.requests) + " req @ " +
               std::to_string(static_cast<std::uint64_t>(cfg.offered_load)) +
               "/s, zipf " + std::to_string(cfg.zipf).substr(0, 4) + ", rw " +
               std::to_string(cfg.read_fraction).substr(0, 4) + ", " +
               std::to_string(cfg.clients) + "c+" +
               std::to_string(cfg.servers) + "s";
  res.total_time = finished_at;
  res.setup_time = w.traffic_start;
  res.serve_window = finished_at - w.traffic_start;
  // Merge the per-client-node reporters (disjoint tenant sets, exact
  // bucket-wise merge) into one run-level view.
  SloReporter slo(cfg.tenants, cfg.slo);
  for (auto& r : w.slo_node) slo.absorb(*r);
  std::uint64_t errors = 0;
  for (std::uint64_t e : w.errors_node) errors += e;
  res.requests_total = slo.total_ops();
  w.cluster.export_net_stats(res.net_stats, res.total_time);
  slo.export_into(res.net_stats);
  res.net_stats.counter("serve.setup_ps") =
      static_cast<std::uint64_t>(res.setup_time);
  res.net_stats.counter("serve.window_ps") =
      static_cast<std::uint64_t>(res.serve_window);
  for (auto& qp : w.qps) {
    res.net_stats.counter("serve.qp.posted") += qp->posted();
    res.net_stats.counter("serve.qp.doorbells") += qp->doorbells();
    res.net_stats.counter("serve.qp.flush.batch") += qp->batch_flushes();
    res.net_stats.counter("serve.qp.flush.timeout") += qp->timeout_flushes();
    res.net_stats.histogram("serve.qp.occupancy").merge(qp->occupancy());
  }
  res.tenants = slo.summaries();
  std::uint64_t expected_total =
      static_cast<std::uint64_t>(cfg.tenants) *
      static_cast<std::uint64_t>(cfg.requests);
  res.correct = errors == 0 && slo.total_ops() == expected_total;
  if (!cfg.quiet) {
    res.report();
    std::fputs(slo.table(res.serve_window).c_str(), stdout);
  }
  return res;
}

ServeResult run_serve(const ServeConfig& cfg) {
  return run_serve(cfg, cluster::SystemConfig::table2());
}

}  // namespace gputn::serve
