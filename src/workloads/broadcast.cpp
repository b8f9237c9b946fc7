#include "workloads/broadcast.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"

namespace gputn::workloads {

namespace {

float pattern(std::size_t i) {
  return static_cast<float>((i * 2654435761u) % 1000) * 0.5f;
}

struct Workspace {
  Workspace(const cluster::SystemConfig& sys, const BroadcastConfig& cfg)
      : cluster(sim, sys, cfg.nodes),
        config(cfg) {
    elems = cfg.bytes / sizeof(float);
    chunk_elems = elems / cfg.chunks;
    for (int n = 0; n < cfg.nodes; ++n) {
      vec.push_back(cluster.node(n).memory().alloc(cfg.bytes));
      std::vector<mem::Addr> f;
      for (int c = 0; c < cfg.chunks; ++c) {
        f.push_back(cluster.node(n).rt().alloc_flag());
      }
      flags.push_back(std::move(f));
    }
    auto root = cluster.node(0).memory().typed<float>(vec[0], elems);
    for (std::size_t i = 0; i < elems; ++i) root[i] = pattern(i);
  }

  std::size_t chunk_count(int c) const {
    return c == config.chunks - 1
               ? elems - chunk_elems * (config.chunks - 1)
               : chunk_elems;
  }
  mem::Addr chunk_addr(int node, int c) const {
    return vec[node] + chunk_elems * static_cast<std::size_t>(c) * 4;
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  BroadcastConfig config;
  std::size_t elems = 0;
  std::size_t chunk_elems = 0;
  std::vector<mem::Addr> vec;
  std::vector<std::vector<mem::Addr>> flags;
};

/// Host-driven pipelined broadcast: each hop is a blocking recv + send.
sim::Task<> hdn_node(Workspace& w, int id) {
  auto& node = w.cluster.node(id);
  const int chunks = w.config.chunks;
  const int last = w.config.nodes - 1;
  for (int c = 0; c < chunks; ++c) {
    if (id != 0) {
      co_await node.rt().recv(id - 1, c, w.chunk_addr(id, c),
                              w.chunk_count(c) * 4);
    }
    if (id != last) {
      co_await node.rt().send(id + 1, c, w.chunk_addr(id, c),
                              w.chunk_count(c) * 4);
    }
  }
}

/// Build the forward put for chunk `c` out of node `id` (to id + 1).
nic::PutDesc forward_put(Workspace& w, int id, int c, bool chain_next) {
  nic::PutDesc put;
  put.target = id + 1;
  put.local_addr = w.chunk_addr(id, c);
  put.bytes = w.chunk_count(c) * 4;
  put.remote_addr = w.chunk_addr(id + 1, c);
  put.remote_flag = w.flags[id + 1][c];
  // Arm the receiver's own forward put for this chunk on arrival.
  if (chain_next) {
    put.remote_trigger_tag_plus1 = static_cast<std::uint64_t>(c) + 1;
  }
  return put;
}

/// GPU-TN: persistent kernels pace the pipeline with triggered puts.
sim::Task<> gputn_node(Workspace& w, int id, bool nic_chain) {
  auto& node = w.cluster.node(id);
  const int chunks = w.config.chunks;
  const int last = w.config.nodes - 1;

  // Register the forward puts *after* launching the kernel: relaxed
  // synchronization (§3.2) lets early triggers park as orphans, hiding the
  // serial posting cost behind the launch.
  auto register_puts = [&]() -> sim::Task<> {
    bool receiver_forwards = id + 1 != last;
    for (int c = 0; c < chunks; ++c) {
      co_await node.rt().trig_put(
          static_cast<std::uint64_t>(c), /*threshold=*/1,
          forward_put(w, id, c, nic_chain && receiver_forwards));
    }
  };

  if (id == 0) {
    // Root kernel: release the chunks in order.
    mem::Addr trig = node.rt().trigger_addr();
    gpu::KernelDesc k;
    k.name = "bcast-root";
    k.num_wgs = 1;
    k.fn = [trig, chunks](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
      co_await ctx.fence_system();
      for (int c = 0; c < chunks; ++c) {
        co_await ctx.store_system(trig, static_cast<std::uint64_t>(c));
      }
    };
    auto rec = co_await node.rt().launch(std::move(k));
    co_await register_puts();
    co_await rec->done.wait();
  } else if (id == last || nic_chain) {
    if (id != last) co_await register_puts();
    // The last node (and, with chains, every intermediate) has no kernel in
    // the control path: the host just observes the final chunk arrivals.
    for (int c = 0; c < chunks; ++c) {
      co_await node.cpu().wait_value_ge(w.flags[id][c], 1);
    }
  } else {
    // GPU-paced intermediate: poll each arrival, trigger the forward.
    mem::Addr trig = node.rt().trigger_addr();
    auto* flags = &w.flags[id];
    gpu::KernelDesc k;
    k.name = "bcast-fwd";
    k.num_wgs = 1;
    k.fn = [trig, chunks, flags](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
      for (int c = 0; c < chunks; ++c) {
        co_await ctx.wait_value_ge((*flags)[c], 1);
        co_await ctx.store_system(trig, static_cast<std::uint64_t>(c));
      }
    };
    auto rec = co_await node.rt().launch(std::move(k));
    co_await register_puts();
    co_await rec->done.wait();
  }
}

}  // namespace

BroadcastResult run_broadcast(const BroadcastConfig& cfg,
                              const cluster::SystemConfig& sys) {
  if (cfg.nodes < 2) throw std::invalid_argument("broadcast needs >= 2 nodes");
  // Every chunk needs at least one element. Checked before the cluster is
  // built, so an impossible split fails at once, whatever the fabric.
  if (cfg.bytes / sizeof(float) / cfg.chunks == 0) {
    throw std::invalid_argument("too many chunks");
  }
  cluster::SystemConfig adjusted = sys;
  adjusted.dram_bytes = cfg.bytes + (4u << 20);
  if (cfg.chunks > adjusted.triggered.table.associative_entries) {
    adjusted.triggered.table.lookup = core::LookupKind::kHash;
  }

  Workspace w(adjusted, cfg);
  const bool chain = cfg.drive == BroadcastDrive::kNicChain;
  std::vector<sim::Task<>> nodes;
  for (int n = 0; n < cfg.nodes; ++n) {
    if (cfg.drive == BroadcastDrive::kHdn) {
      nodes.push_back(hdn_node(w, n));
    } else {
      nodes.push_back(gputn_node(w, n, chain));
    }
  }
  sim::Tick finished_at = run_ranks(w.cluster, cfg, std::move(nodes),
                                    "broadcast");

  BroadcastResult res;
  res.drive = cfg.drive;
  res.nodes = cfg.nodes;
  res.label = "broadcast";
  res.mode = broadcast_drive_name(cfg.drive);
  res.detail = std::to_string(cfg.bytes) + " B in " +
               std::to_string(cfg.chunks) + " chunks over " +
               std::to_string(cfg.nodes) + " nodes";
  res.bytes = cfg.bytes;
  res.total_time = finished_at;
  w.cluster.export_net_stats(res.net_stats, res.total_time);
  res.correct = true;
  for (int n = 0; n < cfg.nodes && res.correct; ++n) {
    auto v = w.cluster.node(n).memory().typed<float>(w.vec[n], w.elems);
    for (std::size_t i = 0; i < w.elems; ++i) {
      if (v[i] != pattern(i)) {
        res.correct = false;
        break;
      }
    }
  }
  return res;
}

BroadcastResult run_broadcast(const BroadcastConfig& cfg) {
  return run_broadcast(cfg, cluster::SystemConfig::table2());
}

}  // namespace gputn::workloads
