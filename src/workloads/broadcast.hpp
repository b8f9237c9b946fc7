// Pipelined ring broadcast — a second collective built on the same
// primitives (§6: "triggered operations have been shown to be effective
// for implementing collective operations").
//
// The root splits the vector into chunks and streams them around the ring;
// each node forwards chunk c to its right neighbour while receiving chunk
// c+1 (classic pipelined broadcast). Three drives:
//
//   HDN       — per-hop, per-chunk kernel-boundary send/recv on the host.
//   GPU-TN    — a persistent kernel on every node polls each chunk's
//               arrival and triggers the pre-staged forward put.
//   GPU-TN + NIC chains — forwarding is armed by counting receive events:
//               after the root's initial triggers, the entire pipeline
//               runs on NICs (no GPU or CPU on any intermediate hop).
#pragma once

#include "cluster/config.hpp"
#include "workloads/options.hpp"
#include "workloads/strategy.hpp"

namespace gputn::workloads {

enum class BroadcastDrive {
  kHdn,      ///< host send/recv per hop per chunk
  kGpuTn,    ///< persistent kernel forwards via triggered puts
  kNicChain, ///< counting-receive chains: NIC-only forwarding
};

inline const char* broadcast_drive_name(BroadcastDrive d) {
  switch (d) {
    case BroadcastDrive::kHdn:
      return "HDN";
    case BroadcastDrive::kGpuTn:
      return "GPU-TN";
    case BroadcastDrive::kNicChain:
      return "NIC-chain";
  }
  return "?";
}

/// Nodes/trace come from RunOptions (default 8); the drive enum replaces
/// the strategy field for this workload (RunOptions::strategy is unused,
/// and the CLI refuses --strategy).
struct BroadcastConfig : RunOptions {
  BroadcastConfig() { nodes = 8; }
  BroadcastDrive drive = BroadcastDrive::kGpuTn;
  std::size_t bytes = 1 << 20;  ///< vector size at the root
  int chunks = 16;              ///< pipeline depth
};

struct BroadcastResult : ResultBase {
  BroadcastDrive drive = BroadcastDrive::kGpuTn;
  std::size_t bytes = 0;
};

BroadcastResult run_broadcast(const BroadcastConfig& cfg,
                              const cluster::SystemConfig& sys);
BroadcastResult run_broadcast(const BroadcastConfig& cfg);

}  // namespace gputn::workloads
