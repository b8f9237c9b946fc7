// Ablation (§3.3): trigger-list lookup structures.
//
// The paper discusses three tag-matching implementations: a hardware linked
// list (Portals-style), a bounded associative array (their prototype: <= 16
// entries), and a hash table. This harness measures the trigger-store ->
// put-on-the-wire latency as the number of active trigger entries grows.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/triggered.hpp"
#include "net/fabric.hpp"
#include "nic/nic.hpp"
#include "sim/simulator.hpp"

using namespace gputn;

namespace {

/// Runs that printed a failure marker; main exits 1 if any did.
int failures = 0;

/// Time from trigger MMIO store to target-side completion, with the target
/// tag registered *behind* `occupancy - 1` other active entries.
double trigger_latency_us(core::LookupKind kind, int occupancy) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  mem::Memory m0(1 << 20), m1(1 << 20);
  nic::Nic n0(sim, m0, fabric, nic::NicConfig{});
  nic::Nic n1(sim, m1, fabric, nic::NicConfig{});
  core::TriggeredNicConfig tcfg;
  tcfg.table.lookup = kind;
  tcfg.table.associative_entries = 1 << 20;  // capacity not under test here
  core::TriggeredNic trig(sim, n0, m0, tcfg);

  mem::Addr src = m0.alloc(64);
  mem::Addr dst = m1.alloc(64);
  mem::Addr rflag = m1.alloc(8);
  m1.store<std::uint64_t>(rflag, 0);

  for (int i = 0; i < occupancy - 1; ++i) {
    nic::PutDesc p;
    p.target = 1;
    p.local_addr = src;
    p.bytes = 64;
    p.remote_addr = dst;
    trig.register_put(1000 + i, /*threshold=*/1u << 30, p);
  }
  nic::PutDesc p;
  p.target = 1;
  p.local_addr = src;
  p.bytes = 64;
  p.remote_addr = dst;
  p.remote_flag = rflag;
  trig.register_put(7, 1, p);

  m0.mmio_store(trig.trigger_address(), 7);
  sim.run();
  double us = sim::to_us(sim.now());
  sim.reap_processes();
  if (m1.load<std::uint64_t>(rflag) != 1) {
    std::printf("  [did not fire!]\n");
    ++failures;
  }
  return us;
}

}  // namespace

int main() {
  std::printf("Ablation: trigger-entry lookup structure (§3.3)\n");
  std::printf("trigger store -> target completion latency (us)\n\n");
  std::printf("%10s %14s %10s %14s\n", "entries", "associative", "hash",
              "linked-list");
  for (int occ : {1, 4, 8, 16, 64, 256, 1024}) {
    std::printf("%10d %14.3f %10.3f %14.3f\n", occ,
                trigger_latency_us(core::LookupKind::kAssociative, occ),
                trigger_latency_us(core::LookupKind::kHash, occ),
                trigger_latency_us(core::LookupKind::kLinkedList, occ));
  }
  std::printf(
      "\nThe associative CAM is flat but capacity-bounded (prototype: 16);\n"
      "hash is flat and unbounded; the linked list degrades linearly with\n"
      "active entries — why §3.3 recommends bounding active entries or\n"
      "hashing.\n");
  return failures == 0 ? 0 : 1;
}
