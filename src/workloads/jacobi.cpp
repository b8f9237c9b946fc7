#include "workloads/jacobi.hpp"

#include <algorithm>
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

/// Per-node simulated state: an (n+2)^2 ghost-padded grid plus packed edge
/// (tx) and halo landing (rx) buffers, all in node memory.
///
/// The functional loops take one typed view per buffer per call, so an
/// access is an indexed span read or write, bounds-checked under
/// _GLIBCXX_ASSERTIONS. No grid or edge buffer holds a flag; a mutable
/// view over a word a spin-wait is parked on would throw.
struct NodeData {
  int n = 0;
  int id = 0;
  mem::Memory* mem = nullptr;
  mem::Addr grid = 0;            // (n+2)^2 doubles, updated in place
  mem::Addr tx[2][4] = {};       // packed outgoing edges (ping-pong), n doubles
  mem::Addr rx[2][4] = {};       // halo landing buffers (ping-pong)
  mem::Addr flag[4] = {};        // arrival flags, value = iter + 1
  mem::Addr local_flag[4] = {};  // GPU-TN local completion, value = iter + 1
  std::vector<double> rows;      // stencil's two new rows, host-side

  std::size_t row_bytes() const { return static_cast<std::size_t>(n) * 8; }
  std::size_t pitch() const { return static_cast<std::size_t>(n) + 2; }

  /// The grid, indexed [i * pitch() + j] with i, j in [0, n+2).
  std::span<double> grid_out() {
    return mem->typed<double>(grid, pitch() * pitch());
  }
  std::span<const double> grid_in() const {
    return std::as_const(*mem).typed<double>(grid, pitch() * pitch());
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
    grid = m.alloc(pitch() * pitch() * 8);
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
    rows.resize(2 * static_cast<std::size_t>(n));
  }

  /// Fills the grid's interior. The ghost layer is filled by unpack_halos
  /// before the first stencil reads it.
  void init_values() {
    auto g = grid_out();
    const std::size_t p = pitch();
    int r0 = (id / kCols) * n, c0 = (id % kCols) * n;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        g[(i + 1) * p + (j + 1)] = initial_value(r0 + i, c0 + j);
      }
    }
  }

  /// Pack the grid's four interior edges into tx[parity].
  void pack_edges(int parity) {
    auto g = grid_in();
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

  /// Unpack rx[parity] halos into the grid's ghost layer.
  void unpack_halos(int parity) {
    auto g = grid_out();
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

  /// 5-point Jacobi step, in place (functional; timing modelled by the
  /// executing agent). New row i is computed from grid rows i-1, i and
  /// i+1 into `rows`, and the buffered row i-1 goes back once row i is
  /// done, so every point reads the previous iteration's values. The ghost
  /// layer is read, never written.
  void stencil() {
    auto g = grid_out();
    const std::size_t p = pitch(), e = static_cast<std::size_t>(n);
    std::span<double> buf[2] = {std::span(rows).first(e),
                                std::span(rows).last(e)};
    auto put_back = [&](std::size_t i) {
      std::ranges::copy(buf[i % 2], g.subspan(i * p + 1, e).begin());
    };
    for (std::size_t i = 1; i <= e; ++i) {
      std::span<double> out = buf[i % 2];
      for (std::size_t j = 1; j <= e; ++j) {
        std::size_t c = i * p + j;
        out[j - 1] = relax(g[c - p], g[c + p], g[c - 1], g[c + 1]);
      }
      if (i > 1) put_back(i - 1);
    }
    put_back(e);
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
  d.pack_edges(0);
  co_await node.cpu().compute_parallel(0, pack_bytes(n));

  for (int k = 0; k < w.config.iterations; ++k) {
    int p = k % 2;
    // Non-blocking sends/recvs (staging copies: pure-CPU eager protocol).
    std::vector<sim::Task<>> ops;
    for (int s = 0; s < 4; ++s) {
      ops.push_back(node.rt().send(neighbor(id, s), halo_tag(k, opposite(s)),
                                   d.tx[p][s], d.row_bytes(),
                                   /*host_staging=*/true));
      ops.push_back(node.rt().recv(neighbor(id, s), halo_tag(k, s),
                                   d.rx[p][s], d.row_bytes(),
                                   /*host_staging=*/true));
    }
    co_await sim::all(w.sim, std::move(ops));
    d.unpack_halos(p);
    d.stencil();
    d.pack_edges((k + 1) % 2);
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
      d.unpack_halos(parity);
      d.stencil();
      d.pack_edges(1 - parity);
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
  d.pack_edges(0);
  co_await node.cpu().compute(sim::ns(200));  // initial host pack

  for (int k = 0; k < w.config.iterations; ++k) {
    int p = k % 2;
    // Kernel boundary: control is on the host, which drives MPI-style
    // send/recv (GPUDirect: zero copy).
    std::vector<sim::Task<>> ops;
    for (int s = 0; s < 4; ++s) {
      ops.push_back(node.rt().send(neighbor(id, s), halo_tag(k, opposite(s)),
                                   d.tx[p][s], d.row_bytes()));
      ops.push_back(node.rt().recv(neighbor(id, s), halo_tag(k, s),
                                   d.rx[p][s], d.row_bytes()));
    }
    co_await sim::all(w.sim, std::move(ops));
    co_await node.rt().launch_sync(make_stencil_kernel(w, id, p));
  }
}

sim::Task<> gds_node(Workspace& w, int id) {
  auto& node = w.cluster.node(id);
  auto& d = w.data[id];
  d.pack_edges(0);
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
  d.pack_edges(0);
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
  // 16 simultaneous entries (§3.3), so the host paces registration: it
  // keeps <= 3 iterations (12 tags) registered, and registers iteration
  // k + 3 once iteration k's puts complete locally. The NIC frees each
  // entry as its put fires. All of this overlaps the persistent kernel
  // (§3.2).
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
        d.unpack_halos(p);
        d.stencil();
        d.pack_edges(1 - p);
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
    co_await register_iter(k + window);
  }
  co_await rec->done.wait();
}

/// Iterations the reference advances per pass over its array: a pass keeps
/// about 5 rows per iteration, so eight keep it in cache.
constexpr std::size_t kRefLevels = 8;

/// Scalar reference: the full 2N x 2N torus in one array, swept in place.
///
/// A pass advances L <= kRefLevels iterations as one wavefront. Level k of
/// the pass holds iteration k's values (level 0 is the array as the pass
/// found it) and visits global rows k, k+1, ..., g-1, 0, ..., k-1: its j-th
/// row is computed at step j + 2k from level k-1's j-th, (j+1)-th and
/// (j+2)-th rows as up, mid and down, after level k-1 computed the last of
/// them in the same step. Each level keeps its first two rows aside for
/// the wrap (rows g and g+1 are rows 0 and 1) and its others in a ring of
/// three; level 0's first two are copies of array rows 0 and 1, and its
/// others are the array's. Level L's j-th row goes back into array row
/// (L + j) mod g at step j + 2L + 2, after level 1's last read of that row
/// (step L + j + 2). Every point is relax of the previous iteration's
/// values, so every double is a two-array sweep's. Once `stop` is
/// requested (the run is unwinding and nobody will read the result) it
/// returns at its next wavefront step.
std::vector<double> reference(int n, int iterations, std::stop_token stop) {
  const std::size_t g = 2 * static_cast<std::size_t>(n);
  std::vector<double> a(g * g);
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      a[i * g + j] = initial_value(static_cast<int>(i), static_cast<int>(j));
    }
  }
  std::vector<double> kept(2 * (kRefLevels + 1) * g);  // levels 0..L, 2 rows
  std::vector<double> ring(3 * kRefLevels * g);        // levels 1..L, 3 rows
  // Level k's row idx, for 0 <= idx < g + 2.
  auto at = [&](std::size_t k, std::size_t idx) -> double* {
    if (idx >= g) idx -= g;
    if (idx < 2) return kept.data() + (2 * k + idx) * g;
    if (k == 0) return a.data() + idx * g;
    return ring.data() + (3 * (k - 1) + idx % 3) * g;
  };
  for (int done = 0; done < iterations;) {
    const std::size_t levels =
        std::min(kRefLevels, static_cast<std::size_t>(iterations - done));
    std::copy_n(a.begin(), 2 * g, kept.begin());
    for (std::size_t step = 2; step < g + 2 * levels + 2; ++step) {
      if (stop.stop_requested()) return a;
      for (std::size_t k = 1; k <= levels && 2 * k <= step; ++k) {
        const std::size_t j = step - 2 * k;
        if (j >= g) continue;
        const double* up = at(k - 1, j);
        const double* mid = at(k - 1, j + 1);
        const double* down = at(k - 1, j + 2);
        double* out = at(k, j);
        auto point = [&](std::size_t c, std::size_t left, std::size_t right) {
          out[c] = relax(up[c], down[c], mid[left], mid[right]);
        };
        point(0, g - 1, 1);
        for (std::size_t c = 1; c < g - 1; ++c) point(c, c - 1, c + 1);
        point(g - 1, g - 2, 0);
      }
      if (step >= 2 * levels + 2) {
        const std::size_t j = step - 2 * levels - 2;
        std::copy_n(at(levels, j), g, a.begin() + ((levels + j) % g) * g);
      }
    }
    done += static_cast<int>(levels);
  }
  return a;
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
  // Room for two grids, though a node allocates one: perfbench.cpp mirrors
  // this formula, the bump allocator needs only an upper bound, and an
  // untouched range of the lazy mapping costs nothing. At n = 1024 either
  // formula gives Table 2's 64 MiB.
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
  std::vector<sim::Task<>> nodes;
  for (int i = 0; i < kNodes; ++i) {
    switch (cfg.strategy) {
      case Strategy::kCpu:
        nodes.push_back(cpu_node(w, i));
        break;
      case Strategy::kHdn:
        nodes.push_back(hdn_node(w, i));
        break;
      case Strategy::kGds:
        nodes.push_back(gds_node(w, i));
        break;
      case Strategy::kGpuTn:
        nodes.push_back(gputn_node(w, i));
        break;
      case Strategy::kGhn:
      case Strategy::kGnn:
        throw std::invalid_argument(
            "jacobi: GHN/GNN are microbenchmark-only strategies");
    }
  }
  sim::Tick finished_at = run_ranks(w.cluster, cfg, std::move(nodes), "jacobi");

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
    auto grid = d.grid_in();
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
