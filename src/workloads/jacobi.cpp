#include "workloads/jacobi.hpp"

#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "rt/collectives.hpp"
#include "sim/sync.hpp"

namespace gputn::workloads {

namespace {

// 2x2 torus decomposition. Ghost sides from the receiver's perspective.
enum Side { kNorth = 0, kSouth = 1, kWest = 2, kEast = 3 };
constexpr int kNodes = 4;
constexpr int kRows = 2, kCols = 2;

int node_id(int r, int c) {
  return ((r % kRows + kRows) % kRows) * kCols + ((c % kCols + kCols) % kCols);
}

/// Neighbor that fills my ghost side `s`.
int neighbor(int id, int s) {
  int r = id / kCols, c = id % kCols;
  switch (s) {
    case kNorth: return node_id(r - 1, c);
    case kSouth: return node_id(r + 1, c);
    case kWest: return node_id(r, c - 1);
    case kEast: return node_id(r, c + 1);
  }
  throw std::logic_error("bad side");
}

/// When I send my edge adjacent to my ghost side `s`, it becomes the
/// receiver's ghost on the opposite side.
int opposite(int s) {
  switch (s) {
    case kNorth: return kSouth;
    case kSouth: return kNorth;
    case kWest: return kEast;
    case kEast: return kWest;
  }
  throw std::logic_error("bad side");
}

std::uint64_t halo_tag(int iter, int side) {
  return static_cast<std::uint64_t>(iter) * 4 + static_cast<std::uint64_t>(side);
}

/// Deterministic initial condition over the global torus.
double initial_value(int gi, int gj) {
  return static_cast<double>((gi * 31 + gj * 17) % 97) / 97.0;
}

/// One 5-point update, in the one sum order every strategy and the scalar
/// reference share, so their doubles agree bit for bit.
inline double relax(double up, double down, double left, double right) {
  return 0.25 * (up + down + left + right);
}

/// Per-node simulated state: an (n+2)^2 ghost-padded grid pair plus packed
/// edge (tx) and halo landing (rx) buffers, all in node memory.
///
/// The functional loops take one typed view per buffer per call, so an
/// access is an indexed span read or write, bounds-checked under
/// _GLIBCXX_ASSERTIONS. No grid or edge buffer holds a flag; a mutable
/// view over a word a spin-wait is parked on would throw.
struct NodeData {
  int n = 0;
  int id = 0;
  mem::Memory* mem = nullptr;
  mem::Addr grid[2] = {0, 0};  // current / next, (n+2)^2 doubles
  int cur = 0;
  mem::Addr tx[2][4] = {};       // packed outgoing edges (ping-pong), n doubles
  mem::Addr rx[2][4] = {};       // halo landing buffers (ping-pong)
  mem::Addr flag[4] = {};        // arrival flags, value = iter + 1
  mem::Addr local_flag[4] = {};  // GPU-TN local completion, value = iter + 1

  std::size_t row_bytes() const { return static_cast<std::size_t>(n) * 8; }
  std::size_t pitch() const { return static_cast<std::size_t>(n) + 2; }

  /// Grid `gridsel`, indexed [i * pitch() + j] with i, j in [0, n+2).
  std::span<double> grid_out(int gridsel) {
    return mem->typed<double>(grid[gridsel], pitch() * pitch());
  }
  std::span<const double> grid_in(int gridsel) const {
    return std::as_const(*mem).typed<double>(grid[gridsel],
                                             pitch() * pitch());
  }
  /// An n-double edge or halo buffer.
  std::span<double> edge_out(mem::Addr a) {
    return mem->typed<double>(a, static_cast<std::size_t>(n));
  }
  std::span<const double> edge_in(mem::Addr a) const {
    return std::as_const(*mem).typed<double>(a, static_cast<std::size_t>(n));
  }

  void alloc(mem::Memory& m, int n_, int id_) {
    n = n_;
    id = id_;
    mem = &m;
    std::size_t cells = pitch() * pitch();
    grid[0] = m.alloc(cells * 8);
    grid[1] = m.alloc(cells * 8);
    for (int p = 0; p < 2; ++p) {
      for (int s = 0; s < 4; ++s) {
        tx[p][s] = m.alloc(row_bytes());
        rx[p][s] = m.alloc(row_bytes());
      }
    }
    for (int s = 0; s < 4; ++s) {
      flag[s] = m.alloc(8);
      m.store<std::uint64_t>(flag[s], 0);
      local_flag[s] = m.alloc(8);
      m.store<std::uint64_t>(local_flag[s], 0);
    }
  }

  /// Fills grid 0's interior. Grid 1 stays as mapped: fresh DRAM reads
  /// zero, and the stencil writes each cell of it before reading it.
  void init_values() {
    auto g = grid_out(0);
    const std::size_t p = pitch();
    int r0 = (id / kCols) * n, c0 = (id % kCols) * n;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        g[(i + 1) * p + (j + 1)] = initial_value(r0 + i, c0 + j);
      }
    }
  }

  /// Pack the four interior edges of `gridsel` into tx[parity].
  void pack_edges(int gridsel, int parity) {
    auto g = grid_in(gridsel);
    auto north = edge_out(tx[parity][kNorth]);
    auto south = edge_out(tx[parity][kSouth]);
    auto west = edge_out(tx[parity][kWest]);
    auto east = edge_out(tx[parity][kEast]);
    const std::size_t p = pitch(), e = static_cast<std::size_t>(n);
    for (std::size_t j = 0; j < e; ++j) {
      north[j] = g[p + (j + 1)];
      south[j] = g[e * p + (j + 1)];
    }
    for (std::size_t i = 0; i < e; ++i) {
      west[i] = g[(i + 1) * p + 1];
      east[i] = g[(i + 1) * p + e];
    }
  }

  /// Unpack rx[parity] halos into the ghost layer of `gridsel`.
  void unpack_halos(int gridsel, int parity) {
    auto g = grid_out(gridsel);
    auto north = edge_in(rx[parity][kNorth]);
    auto south = edge_in(rx[parity][kSouth]);
    auto west = edge_in(rx[parity][kWest]);
    auto east = edge_in(rx[parity][kEast]);
    const std::size_t p = pitch(), e = static_cast<std::size_t>(n);
    for (std::size_t j = 0; j < e; ++j) {
      g[j + 1] = north[j];
      g[(e + 1) * p + (j + 1)] = south[j];
    }
    for (std::size_t i = 0; i < e; ++i) {
      g[(i + 1) * p] = west[i];
      g[(i + 1) * p + (e + 1)] = east[i];
    }
  }

  /// 5-point Jacobi step: cur -> next (functional; timing modelled by the
  /// executing agent).
  void stencil() {
    int nx = 1 - cur;
    auto from = grid_in(cur);
    auto to = grid_out(nx);
    const std::size_t p = pitch(), e = static_cast<std::size_t>(n);
    for (std::size_t i = 1; i <= e; ++i) {
      for (std::size_t j = 1; j <= e; ++j) {
        std::size_t c = i * p + j;
        to[c] = relax(from[c - p], from[c + p], from[c - 1], from[c + 1]);
      }
    }
    cur = nx;
  }
};

/// Modelled data traffic of one stencil iteration. The GPU streams
/// coalesced reads + writes (row reuse absorbed by the L2): 16 B/point.
std::uint64_t stencil_bytes(int n) {
  return static_cast<std::uint64_t>(n) * n * 16;
}
/// The host pays row re-reads and write-allocate on top: 40 B/point.
std::uint64_t cpu_stencil_bytes(int n) {
  return static_cast<std::uint64_t>(n) * n * 40;
}
double stencil_flops(int n) { return 4.0 * n * n; }
std::uint64_t pack_bytes(int n) {
  return static_cast<std::uint64_t>(n) * 8 * 4 * 2;  // 4 edges, read+write
}

struct Workspace {
  explicit Workspace(const cluster::SystemConfig& sys, const JacobiConfig& cfg)
      : cluster(sim, sys, kNodes),
        config(cfg) {
    for (int i = 0; i < kNodes; ++i) {
      data[i].alloc(cluster.node(i).memory(), cfg.n, i);
      data[i].init_values();
    }
  }
  sim::Simulator sim;
  cluster::Cluster cluster;
  JacobiConfig config;
  NodeData data[kNodes];
};

// ---------------------------------------------------------------------------
// Strategy executors. Per-iteration structure (identical data flow):
//   1. transmit tx[k%2] (edges of the current state) to the 4 neighbours
//   2. await the 4 halos for iteration k; unpack
//   3. stencil; pack the new edges into tx[(k+1)%2]
// ---------------------------------------------------------------------------

sim::Task<> cpu_node(Workspace& w, int id) {
  auto& node = w.cluster.node(id);
  auto& d = w.data[id];
  const int n = w.config.n;
  d.pack_edges(d.cur, 0);
  co_await node.cpu().compute_parallel(0, pack_bytes(n));

  for (int k = 0; k < w.config.iterations; ++k) {
    int p = k % 2;
    // Non-blocking sends/recvs (staging copies: pure-CPU eager protocol).
    std::vector<sim::ProcessHandle> ops;
    for (int s = 0; s < 4; ++s) {
      ops.push_back(w.sim.spawn(
          node.rt().send(neighbor(id, s), halo_tag(k, opposite(s)),
                         d.tx[p][s], d.row_bytes(), /*host_staging=*/true),
          "send"));
      ops.push_back(w.sim.spawn(
          node.rt().recv(neighbor(id, s), halo_tag(k, s), d.rx[p][s],
                         d.row_bytes(), /*host_staging=*/true),
          "recv"));
    }
    co_await sim::join_all(std::move(ops));
    d.unpack_halos(d.cur, p);
    d.stencil();
    d.pack_edges(d.cur, (k + 1) % 2);
    co_await node.cpu().compute_parallel(
        stencil_flops(n), cpu_stencil_bytes(n) + pack_bytes(n));
  }
}

/// The stencil kernel shared by HDN and GDS: unpack halos (parity p),
/// stencil, pack new edges into tx[1-p]; work-group 0 performs the
/// functional update, every work-group accounts its share of the traffic.
gpu::KernelDesc make_stencil_kernel(Workspace& w, int id, int parity) {
  auto& d = w.data[id];
  const int n = w.config.n;
  gpu::KernelDesc k;
  k.name = "jacobi";
  k.num_wgs = w.config.num_wgs;
  k.fn = [&d, n, parity](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
    if (ctx.wg_id() == 0) {
      d.unpack_halos(d.cur, parity);
      d.stencil();
      d.pack_edges(d.cur, 1 - parity);
      ctx.mark_dirty();
    }
    co_await ctx.compute_mem((stencil_bytes(n) + pack_bytes(n)) /
                             static_cast<std::uint64_t>(ctx.num_wgs()));
  };
  return k;
}

sim::Task<> hdn_node(Workspace& w, int id) {
  auto& node = w.cluster.node(id);
  auto& d = w.data[id];
  d.pack_edges(d.cur, 0);
  co_await node.cpu().compute(sim::ns(200));  // initial host pack

  for (int k = 0; k < w.config.iterations; ++k) {
    int p = k % 2;
    // Kernel boundary: control is on the host, which drives MPI-style
    // send/recv (GPUDirect: zero copy).
    std::vector<sim::ProcessHandle> ops;
    for (int s = 0; s < 4; ++s) {
      ops.push_back(w.sim.spawn(
          node.rt().send(neighbor(id, s), halo_tag(k, opposite(s)),
                         d.tx[p][s], d.row_bytes()),
          "send"));
      ops.push_back(w.sim.spawn(
          node.rt().recv(neighbor(id, s), halo_tag(k, s), d.rx[p][s],
                         d.row_bytes()),
          "recv"));
    }
    co_await sim::join_all(std::move(ops));
    co_await node.rt().launch_sync(make_stencil_kernel(w, id, p));
  }
}

sim::Task<> gds_node(Workspace& w, int id) {
  auto& node = w.cluster.node(id);
  auto& d = w.data[id];
  d.pack_edges(d.cur, 0);
  co_await node.cpu().compute(sim::ns(200));

  // Pre-post the whole stream: [4 puts | 4 waits | kernel] per iteration.
  // The host's work ends after posting; the GPU front-end drives everything.
  std::shared_ptr<gpu::KernelRecord> last;
  for (int k = 0; k < w.config.iterations; ++k) {
    int p = k % 2;
    for (int s = 0; s < 4; ++s) {
      nic::PutDesc put;
      put.target = neighbor(id, s);
      put.local_addr = d.tx[p][s];
      put.bytes = d.row_bytes();
      auto& peer = w.data[put.target];
      put.remote_addr = peer.rx[p][opposite(s)];
      put.remote_flag = peer.flag[opposite(s)];
      put.flag_value = static_cast<std::uint64_t>(k) + 1;
      co_await node.rt().gds_stream_put(put);
    }
    for (int s = 0; s < 4; ++s) {
      node.rt().gds_stream_wait(d.flag[s], static_cast<std::uint64_t>(k) + 1);
    }
    last = co_await node.rt().launch(make_stencil_kernel(w, id, p));
  }
  // Zero iterations post no kernel, so there is nothing to wait for.
  if (last) co_await last->done.wait();
}

sim::Task<> gputn_node(Workspace& w, int id) {
  auto& node = w.cluster.node(id);
  auto& d = w.data[id];
  const int n = w.config.n;
  const int iters = w.config.iterations;
  const int wgs = w.config.num_wgs;
  d.pack_edges(d.cur, 0);
  co_await node.cpu().compute(sim::ns(200));

  auto register_iter = [&](int k) -> sim::Task<> {
    int p = k % 2;
    for (int s = 0; s < 4; ++s) {
      nic::PutDesc put;
      put.target = neighbor(id, s);
      put.local_addr = d.tx[p][s];
      put.bytes = d.row_bytes();
      auto& peer = w.data[put.target];
      put.remote_addr = peer.rx[p][opposite(s)];
      put.remote_flag = peer.flag[opposite(s)];
      put.flag_value = static_cast<std::uint64_t>(k) + 1;
      put.local_flag = d.local_flag[s];
      co_await node.rt().trig_put(halo_tag(k, s),
                                  static_cast<std::uint64_t>(wgs), put);
    }
  };

  // Sliding registration window: the prototype trigger table holds at most
  // 16 simultaneous entries (§3.3), so the host keeps <= 3 iterations (12
  // tags) registered and reclaims fired tags as their puts complete
  // locally. All of this overlaps the persistent kernel (§3.2).
  const int window = std::min(iters, 3);
  for (int k = 0; k < window; ++k) co_await register_iter(k);

  // One persistent kernel for the entire run (§5.3: "GPU-TN uses a single
  // kernel for the entire duration of the program").
  gpu::KernelDesc kern;
  kern.name = "jacobi-persistent";
  kern.num_wgs = wgs;
  mem::Addr trig = node.rt().trigger_addr();
  const bool overlap = w.config.overlap;
  kern.fn = [&d, n, iters, trig, overlap](gpu::WorkGroupCtx& ctx)
      -> sim::Task<> {
    // Interior points need no halos; the boundary ring does.
    std::uint64_t interior = n > 2 ? stencil_bytes(n - 2) : 0;
    std::uint64_t boundary = stencil_bytes(n) - interior;
    for (int k = 0; k < iters; ++k) {
      int p = k % 2;
      // Trigger the four halo puts for this iteration (threshold = #WGs:
      // every WG reaching this point means the previous pack is complete).
      for (int s = 0; s < 4; ++s) {
        co_await ctx.store_system(trig, halo_tag(k, s));
      }
      if (overlap) {
        // Compute the interior while the halos are in flight (§5.3's
        // unexploited overlap, implemented as an extension).
        co_await ctx.compute_mem(interior /
                                 static_cast<std::uint64_t>(ctx.num_wgs()));
      }
      // Await this iteration's halos from the NIC.
      for (int s = 0; s < 4; ++s) {
        co_await ctx.wait_value_ge(d.flag[s], static_cast<std::uint64_t>(k) + 1);
      }
      if (ctx.wg_id() == 0) {
        d.unpack_halos(d.cur, p);
        d.stencil();
        d.pack_edges(d.cur, 1 - p);
        ctx.mark_dirty();
      }
      std::uint64_t remaining =
          (overlap ? boundary : stencil_bytes(n)) + pack_bytes(n);
      co_await ctx.compute_mem(remaining /
                               static_cast<std::uint64_t>(ctx.num_wgs()));
      co_await ctx.fence_system();  // new edges visible before next trigger
    }
  };
  auto rec = co_await node.rt().launch(std::move(kern));

  // Host-side re-arming loop, fully off the critical path.
  for (int k = 0; k + window < iters; ++k) {
    for (int s = 0; s < 4; ++s) {
      co_await node.cpu().wait_value_ge(d.local_flag[s],
                                        static_cast<std::uint64_t>(k) + 1);
    }
    for (int s = 0; s < 4; ++s) node.triggered().release(halo_tag(k, s));
    co_await register_iter(k + window);
  }
  co_await rec->done.wait();
}

/// Scalar reference: the full 2N x 2N torus. Once `stop` is requested (the
/// run is unwinding and nobody will read the result) it returns at its next
/// iteration.
std::vector<double> reference(int n, int iterations, std::stop_token stop) {
  int g = 2 * n;
  std::vector<double> cur(static_cast<std::size_t>(g) * g);
  std::vector<double> nxt(cur.size());
  for (int i = 0; i < g; ++i) {
    for (int j = 0; j < g; ++j) cur[static_cast<std::size_t>(i) * g + j] = initial_value(i, j);
  }
  // The torus wraps once per row (row pointers for i-1, i, i+1) and at
  // columns 0 and g-1, so the inner loop takes no modulo.
  auto row = [g](std::vector<double>& v, int i) {
    return v.data() + static_cast<std::size_t>((i + g) % g) * g;
  };
  for (int k = 0; k < iterations && !stop.stop_requested(); ++k) {
    for (int i = 0; i < g; ++i) {
      const double* up = row(cur, i - 1);
      const double* mid = row(cur, i);
      const double* down = row(cur, i + 1);
      double* out = row(nxt, i);
      auto point = [&](int j, int left, int right) {
        out[j] = relax(up[j], down[j], mid[left], mid[right]);
      };
      point(0, g - 1, 1);
      for (int j = 1; j < g - 1; ++j) point(j, j - 1, j + 1);
      point(g - 1, g - 2, 0);
    }
    cur.swap(nxt);
  }
  return cur;
}

}  // namespace

JacobiResult run_jacobi(const JacobiConfig& cfg,
                        const cluster::SystemConfig& sys) {
  if (cfg.n < 1 || cfg.n > kMaxN) {
    throw std::invalid_argument("jacobi: grid edge " + std::to_string(cfg.n) +
                                " out of range [1, " + std::to_string(kMaxN) +
                                "]");
  }
  cluster::SystemConfig adjusted = sys;
  std::uint64_t grid_bytes =
      2ull * (cfg.n + 2) * (cfg.n + 2) * 8 + 16ull * cfg.n * 8 + (1 << 20);
  adjusted.dram_bytes = std::max(adjusted.dram_bytes, grid_bytes + (4u << 20));

  Workspace w(adjusted, cfg);
  // The reference depends only on (n, iterations): compute it on a helper
  // thread while the simulation runs. The two threads share only `ref` and
  // `ref_error`, which this thread reads after the join. If the run throws
  // first, the jthread's destructor requests stop and joins.
  std::vector<double> ref;
  std::exception_ptr ref_error;
  std::jthread ref_thread([&ref, &ref_error, n = cfg.n,
                           iterations = cfg.iterations](std::stop_token stop) {
    try {
      ref = reference(n, iterations, stop);
    } catch (...) {
      ref_error = std::current_exception();
    }
  });
  if (cfg.trace != nullptr) w.cluster.enable_tracing(*cfg.trace);
  if (cfg.timeseries != nullptr) w.cluster.attach_timeseries(*cfg.timeseries);
  if (cfg.flight != nullptr) w.cluster.attach_flight(*cfg.flight);
  std::vector<sim::ProcessHandle> nodes;
  for (int i = 0; i < kNodes; ++i) {
    sim::ProcessHandle h;
    switch (cfg.strategy) {
      case Strategy::kCpu:
        h = w.sim.spawn(cpu_node(w, i), "cpu_node");
        break;
      case Strategy::kHdn:
        h = w.sim.spawn(hdn_node(w, i), "hdn_node");
        break;
      case Strategy::kGds:
        h = w.sim.spawn(gds_node(w, i), "gds_node");
        break;
      case Strategy::kGpuTn:
        h = w.sim.spawn(gputn_node(w, i), "gputn_node");
        break;
      case Strategy::kGhn:
      case Strategy::kGnn:
        throw std::invalid_argument(
            "jacobi: GHN/GNN are microbenchmark-only strategies");
    }
    nodes.push_back(h);
  }
  // Completion monitor + watchdog (see allreduce.cpp for rationale).
  sim::Tick finished_at = -1;
  w.sim.spawn(sim::join_all_at(w.sim, std::move(nodes), finished_at),
              "monitor");
  w.sim.run_until(sim::sec(10));
  if (finished_at < 0) {
    throw std::runtime_error("jacobi: deadlocked (node never finished)");
  }
  w.cluster.flush_flight();

  JacobiResult res;
  res.strategy = cfg.strategy;
  res.nodes = kNodes;
  res.label = "jacobi";
  res.detail = std::to_string(cfg.n) + "x" + std::to_string(cfg.n) + " local, " +
               std::to_string(cfg.iterations) + " iters";
  res.n = cfg.n;
  res.iterations = cfg.iterations;
  res.total_time = finished_at;
  w.cluster.export_net_stats(res.net_stats, res.total_time);

  ref_thread.join();
  if (ref_error) std::rethrow_exception(ref_error);
  // Bit for bit: relax's one sum order makes every strategy's doubles equal
  // the reference's.
  const std::size_t n = static_cast<std::size_t>(cfg.n), g = 2 * n;
  bool ok = true;
  double checksum = 0.0;
  for (int node = 0; node < kNodes && ok; ++node) {
    const NodeData& d = w.data[node];
    auto grid = d.grid_in(d.cur);
    const std::size_t p = d.pitch();
    std::size_t r0 = (node / kCols) * n, c0 = (node % kCols) * n;
    for (std::size_t i = 0; i < n && ok; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double got = grid[(i + 1) * p + (j + 1)];
        double want = ref[(r0 + i) * g + (c0 + j)];
        if (node == 0) checksum += got;
        if (got != want) {
          ok = false;
          break;
        }
      }
    }
  }
  res.correct = ok;
  res.checksum = checksum;
  return res;
}

JacobiResult run_jacobi(const JacobiConfig& cfg) {
  return run_jacobi(cfg, cluster::SystemConfig::table2());
}

}  // namespace gputn::workloads
