#include "exp/sweeps.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster/config.hpp"
#include "serve/serve.hpp"
#include "workloads/allreduce.hpp"
#include "workloads/broadcast.hpp"
#include "workloads/jacobi.hpp"
#include "workloads/strategy.hpp"

namespace gputn::exp {

namespace {

using workloads::AllreduceConfig;
using workloads::BroadcastConfig;
using workloads::JacobiConfig;
using workloads::Strategy;

std::string num(long long v) { return std::to_string(v); }

}  // namespace

Plan fig09_plan(const std::vector<int>& grids, int iterations, int num_wgs) {
  Plan plan;
  for (int n : grids) {
    for (Strategy s : workloads::kAllStrategies) {
      JacobiConfig cfg;
      cfg.strategy = s;
      cfg.n = n;
      cfg.iterations = iterations;
      cfg.num_wgs = num_wgs;
      plan.add("jacobi/n" + num(n) + "/" + strategy_name(s),
               [cfg] { return workloads::run_jacobi(cfg); });
    }
  }
  return plan;
}

Plan fig10_plan(const std::vector<int>& node_counts, std::size_t elements) {
  Plan plan;
  for (int nodes : node_counts) {
    for (Strategy s : workloads::kAllStrategies) {
      AllreduceConfig cfg;
      cfg.strategy = s;
      cfg.nodes = nodes;
      cfg.elements = elements;
      plan.add("allreduce/p" + num(nodes) + "/" + strategy_name(s),
               [cfg] { return workloads::run_allreduce(cfg); });
    }
  }
  return plan;
}

Plan jacobi_overlap_plan(const std::vector<int>& grids, int iterations) {
  Plan plan;
  for (int n : grids) {
    for (bool overlap : {false, true}) {
      JacobiConfig cfg;
      cfg.strategy = Strategy::kGpuTn;
      cfg.n = n;
      cfg.iterations = iterations;
      cfg.overlap = overlap;
      plan.add("jacobi-overlap/n" + num(n) + (overlap ? "/on" : "/off"),
               [cfg] { return workloads::run_jacobi(cfg); });
    }
  }
  return plan;
}

Plan coll_offload_plan(
    const std::vector<std::pair<int, std::size_t>>& rows) {
  Plan plan;
  for (const auto& [nodes, elements] : rows) {
    for (bool offload : {false, true}) {
      AllreduceConfig cfg;
      cfg.strategy = Strategy::kGpuTn;
      cfg.nodes = nodes;
      cfg.elements = elements;
      cfg.nic_offload_allgather = offload;
      plan.add("allreduce-offload/p" + num(nodes) + "/e" +
                   num(static_cast<long long>(elements)) +
                   (offload ? "/nic" : "/gpu"),
               [cfg] { return workloads::run_allreduce(cfg); });
    }
  }
  return plan;
}

Plan fault_loss_plan(const std::vector<double>& loss_rates, int nodes,
                     std::size_t elements, std::uint64_t seed) {
  Plan plan;
  for (double loss : loss_rates) {
    AllreduceConfig cfg;
    cfg.strategy = Strategy::kGpuTn;
    cfg.nodes = nodes;
    cfg.elements = elements;
    cluster::SystemConfig sys =
        cluster::SystemConfig::table2_with_loss(loss, seed);
    char tag[32];
    std::snprintf(tag, sizeof(tag), "%g", loss);
    plan.add("allreduce-loss/" + std::string(tag),
             [cfg, sys] { return workloads::run_allreduce(cfg, sys); });
  }
  return plan;
}

Plan broadcast_plan(const std::vector<int>& node_counts, std::size_t bytes,
                    int chunks) {
  Plan plan;
  for (int nodes : node_counts) {
    for (workloads::BroadcastDrive d :
         {workloads::BroadcastDrive::kHdn, workloads::BroadcastDrive::kGpuTn,
          workloads::BroadcastDrive::kNicChain}) {
      BroadcastConfig cfg;
      cfg.drive = d;
      cfg.nodes = nodes;
      cfg.bytes = bytes;
      cfg.chunks = chunks;
      plan.add("broadcast/p" + num(nodes) + "/" +
                   workloads::broadcast_drive_name(d),
               [cfg] { return workloads::run_broadcast(cfg); });
    }
  }
  return plan;
}

Plan serve_load_plan(const std::vector<double>& offered_loads,
                     serve::ServeConfig base) {
  Plan plan;
  for (double load : offered_loads) {
    for (Strategy s : {Strategy::kCpu, Strategy::kGpuTn}) {
      serve::ServeConfig cfg = base;
      cfg.strategy = s;
      cfg.offered_load = load;
      cfg.quiet = true;
      char tag[32];
      std::snprintf(tag, sizeof(tag), "%g", load);
      plan.add("serve-load/" + std::string(tag) + "/" + strategy_name(s),
               [cfg] { return serve::run_serve(cfg); });
    }
  }
  return plan;
}

Plan fabric_scale_plan(const std::vector<int>& node_counts,
                       const std::vector<std::string>& topologies,
                       std::size_t elements, const std::string& routing) {
  Plan plan;
  for (int nodes : node_counts) {
    for (const std::string& topo : topologies) {
      cluster::SystemConfig sys = cluster::SystemConfig::table2();
      sys.fabric.topology = topo;
      if (!routing.empty()) sys.fabric.routing = routing;
      for (Strategy s : {Strategy::kCpu, Strategy::kGpuTn}) {
        AllreduceConfig cfg;
        cfg.strategy = s;
        cfg.nodes = nodes;
        cfg.elements = elements;
        plan.add("fabric/p" + num(nodes) + "/" + topo + "/" + strategy_name(s),
                 [cfg, sys] { return workloads::run_allreduce(cfg, sys); });
      }
    }
  }
  return plan;
}

Plan mini_sweep_plan() {
  Plan plan;
  plan.append(fig09_plan({16, 32, 64}, /*iterations=*/5));
  plan.append(fig10_plan({2, 4, 8}, /*elements=*/64 * 1024));
  plan.append(jacobi_overlap_plan({32, 64}, /*iterations=*/5));
  plan.append(coll_offload_plan({{4, 64 * 1024}, {8, 64 * 1024}}));
  plan.append(
      fault_loss_plan({0.0, 0.01}, /*nodes=*/4, /*elements=*/32 * 1024));
  plan.append(broadcast_plan({4, 8}, /*bytes=*/256 * 1024, /*chunks=*/8));
  {
    serve::ServeConfig small;
    small.tenants = 2;
    small.window = 2;
    small.requests = 64;
    small.keyspace = 128;
    small.read_fraction = 0.5;
    plan.append(serve_load_plan({5e5, 2e6}, small));
  }
  return plan;
}

int jobs_from_args(int argc, char** argv, int dflt) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --jobs needs a value\n", argv[0]);
        std::exit(2);
      }
      char* end = nullptr;
      long v = std::strtol(argv[i + 1], &end, 10);
      if (end == argv[i + 1] || *end != '\0' || v < 0 || v > 4096) {
        std::fprintf(stderr, "%s: bad --jobs value '%s'\n", argv[0],
                     argv[i + 1]);
        std::exit(2);
      }
      return static_cast<int>(v);
    }
  }
  return dflt;
}

}  // namespace gputn::exp
