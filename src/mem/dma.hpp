// DMA engine: timed bulk data movement between memory regions.
//
// Each NIC owns two DMA engines (TX and RX). Transfers occupy the engine in
// request order (a one-slot sim::Slots), take `startup + bytes / bandwidth`
// simulated time, and move real bytes so data integrity is verifiable
// end-to-end. The engine is a passive unit (DESIGN.md §9): a transfer is
// one event, and the requester's continuation is a function pointer plus
// context (sim::Callback) that runs at completion, after the bytes move.
// A completion runs in this order: the ledger release, the hand-off of the
// engine to the next waiting transfer, the functional copy, then the
// continuation.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/memory.hpp"
#include "obs/busy.hpp"
#include "sim/sync.hpp"

namespace gputn::mem {

class DmaEngine {
 public:
  DmaEngine(sim::Simulator& sim, Memory& memory, sim::Bandwidth bandwidth,
            sim::Tick startup)
      : sim_(&sim),
        mem_(&memory),
        bandwidth_(bandwidth),
        startup_(startup),
        engine_(sim, 1, sim::method<&DmaEngine::start>(this)) {}
  DmaEngine(const DmaEngine&) = delete;
  DmaEngine& operator=(const DmaEngine&) = delete;

  /// Copy `n` bytes memory->memory within this node.
  void copy(Addr dst, Addr src, std::uint64_t n, sim::Callback<> done = {});

  /// Read `n` bytes from memory into a staging vector (device pulling data
  /// out of host memory, e.g. NIC TX). `dst` must stay put until `done`.
  void read_into(std::vector<std::byte>& dst, Addr src, std::uint64_t n,
                 sim::Callback<> done);

  /// Write a staging buffer into memory (e.g. NIC RX landing a payload).
  /// `src` must stay put until `done`.
  void write_from(Addr dst, const std::vector<std::byte>& src,
                  sim::Callback<> done);

  std::uint64_t bytes_moved() const { return bytes_moved_; }

  /// Engine-occupancy ledger: busy for startup + serialization of each
  /// transfer, queued while waiting for the engine.
  const obs::BusyTracker& util() const { return util_; }

 private:
  struct Transfer {
    enum class Kind : std::uint8_t { kCopy, kRead, kWrite };
    Kind kind = Kind::kCopy;
    Addr dst = 0;
    Addr src = 0;
    std::uint64_t n = 0;
    std::vector<std::byte>* into = nullptr;      ///< kRead's staging buffer
    const std::vector<std::byte>* from = nullptr;  ///< kWrite's
    sim::Callback<> done;
  };

  void request(Transfer t);
  /// The engine takes `t`.
  void start(Transfer&& t);
  /// The transfer in service is done.
  void complete();

  sim::Simulator* sim_;
  Memory* mem_;
  sim::Bandwidth bandwidth_;
  sim::Tick startup_;
  sim::Slots<Transfer> engine_;
  Transfer cur_;  ///< the transfer in service
  obs::BusyTracker util_;
  std::uint64_t bytes_moved_ = 0;
};

}  // namespace gputn::mem
