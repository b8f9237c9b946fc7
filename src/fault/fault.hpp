// Deterministic fault injection for the fabric.
//
// A FaultModel owns one LinkFaultInjector per named link (net::Link consults
// it via the net::FaultInjector interface once per packet, in FIFO order).
// Every injector draws from its own RNG seeded by `seed ^ hash(link name)`,
// so the fault sequence on a link depends only on the configuration and the
// packets that traverse that link — never on construction order or on
// traffic elsewhere — which keeps whole-cluster runs reproducible.
//
// Two injection mechanisms compose:
//   * probabilistic: per-link loss rate, corruption rate, and uniform
//     jitter-delay bounds (a LinkFaultProfile, with per-link overrides);
//   * scripted: "do X to packet #N on link L" entries, for deterministic
//     regression tests of specific protocol corners (drop exactly the RTS,
//     corrupt exactly one chunk, ...).
//
// Corruption is a flag on the message, not a payload bit-flip: the receiver
// NIC's reliability layer (fault/reliability.hpp) detects it as a failed
// checksum would be and discards the message, so corrupt payload bytes are
// never interpreted.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace gputn::fault {

/// Probabilistic fault rates for one link.
struct LinkFaultProfile {
  double loss_rate = 0.0;     ///< P(drop) per packet
  double corrupt_rate = 0.0;  ///< P(corrupt flag) per packet
  /// Uniform jitter added to a packet's propagation, in [jitter_min,
  /// jitter_max]. Both zero = no jitter. Jitter can reorder messages on a
  /// path, exercising the receiver's reordering tolerance.
  sim::Tick jitter_min = 0;
  sim::Tick jitter_max = 0;

  bool active() const {
    return loss_rate > 0.0 || corrupt_rate > 0.0 || jitter_max > 0;
  }
};

enum class FaultKind { kDrop, kCorrupt, kDelay };

/// A scripted, fully deterministic fault: applied to the `packet_index`-th
/// packet (0-based, in transmission order) on the link named `link`.
struct ScriptedFault {
  std::string link;
  std::uint64_t packet_index = 0;
  FaultKind kind = FaultKind::kDrop;
  sim::Tick delay = 0;  ///< for kDelay
};

struct FaultConfig {
  std::uint64_t seed = 1;
  /// Applied to every link without an entry in `per_link`.
  LinkFaultProfile default_profile;
  /// Overrides keyed by link name ("up0", "down3", ...).
  std::map<std::string, LinkFaultProfile> per_link;
  std::vector<ScriptedFault> script;

  /// True if this configuration can ever inject a fault. The cluster
  /// enables the NIC reliability layer exactly when this holds, so a
  /// lossless configuration pays zero protocol overhead (no sequence
  /// numbers on the wire, no ACKs).
  bool enabled() const {
    if (default_profile.active() || !script.empty()) return true;
    for (const auto& [name, p] : per_link) {
      if (p.active()) return true;
    }
    return false;
  }

  /// Convenience: uniform loss on every link.
  static FaultConfig uniform_loss(double rate, std::uint64_t seed = 1) {
    FaultConfig c;
    c.seed = seed;
    c.default_profile.loss_rate = rate;
    return c;
  }
};

/// Per-link injector state; created and owned by FaultModel.
class LinkFaultInjector final : public net::FaultInjector {
 public:
  LinkFaultInjector(std::string name, LinkFaultProfile profile,
                    std::uint64_t seed, sim::StatRegistry& stats);

  /// Add a scripted fault for this link (packet_index in tx order).
  void add_scripted(const ScriptedFault& f);

  net::FaultVerdict classify(const net::Packet& p) override;

  const std::string& name() const { return name_; }
  std::uint64_t packets_seen() const { return packet_index_; }

 private:
  std::string name_;
  LinkFaultProfile profile_;
  sim::Rng rng_;
  sim::StatRegistry* stats_;
  std::uint64_t packet_index_ = 0;
  /// Scripted entries keyed by packet index; multimap allows e.g. a delay
  /// and a corrupt on the same packet.
  std::multimap<std::uint64_t, ScriptedFault> script_;
  /// Stat handles in *stats_, each looked up on its first use (a stat
  /// enters the export only once it counts something) and held after, so
  /// a faulted packet builds no key. drops_ and corruptions_ pair the
  /// aggregate counter with this link's.
  std::uint64_t* drops_[2] = {};
  std::uint64_t* corruptions_[2] = {};
  std::uint64_t* delays_ = nullptr;
  sim::Accumulator* jitter_ns_ = nullptr;

  /// Bump `fault.<what>` and `fault.<link>.<what>` through `handles`.
  void count(std::uint64_t* (&handles)[2], const char* what);
};

class FaultModel {
 public:
  explicit FaultModel(FaultConfig config);
  FaultModel(const FaultModel&) = delete;
  FaultModel& operator=(const FaultModel&) = delete;

  /// The injector for `link_name`, created on first use (so the model works
  /// with any topology without pre-declaring links). Returns a pointer the
  /// link keeps for its lifetime; the model must outlive the fabric's links.
  LinkFaultInjector* injector_for(const std::string& link_name);

  const FaultConfig& config() const { return config_; }

  /// Aggregate + per-link injection counters:
  ///   fault.drops / fault.corruptions / fault.delays, fault.jitter_ns,
  ///   fault.<link>.drops / ...
  const sim::StatRegistry& stats() const { return stats_; }

  /// Merge this model's counters into an experiment-level registry.
  void export_stats(sim::StatRegistry& reg) const;

 private:
  FaultConfig config_;
  sim::StatRegistry stats_;
  std::map<std::string, std::unique_ptr<LinkFaultInjector>> injectors_;
};

}  // namespace gputn::fault
