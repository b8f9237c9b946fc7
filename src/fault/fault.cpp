#include "fault/fault.hpp"

#include <utility>

namespace gputn::fault {

namespace {

/// FNV-1a, so a link's RNG stream depends only on (seed, link name).
std::uint64_t hash_name(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

LinkFaultInjector::LinkFaultInjector(std::string name, LinkFaultProfile profile,
                                     std::uint64_t seed,
                                     sim::StatRegistry& stats)
    : name_(std::move(name)),
      profile_(profile),
      rng_(seed ^ hash_name(name_)),
      stats_(&stats) {}

void LinkFaultInjector::add_scripted(const ScriptedFault& f) {
  script_.emplace(f.packet_index, f);
}

net::FaultVerdict LinkFaultInjector::classify(const net::Packet& p) {
  (void)p;
  std::uint64_t index = packet_index_++;
  net::FaultVerdict v;

  // Probabilistic faults. All three draws happen for every packet so that
  // a packet's fate never perturbs the random stream seen by later packets
  // (keeps scripted + probabilistic composition deterministic).
  bool drop = profile_.loss_rate > 0.0 && rng_.bernoulli(profile_.loss_rate);
  bool corrupt =
      profile_.corrupt_rate > 0.0 && rng_.bernoulli(profile_.corrupt_rate);
  sim::Tick jitter = 0;
  if (profile_.jitter_max > profile_.jitter_min) {
    jitter = rng_.uniform_int(profile_.jitter_min, profile_.jitter_max);
  } else if (profile_.jitter_max > 0) {
    jitter = profile_.jitter_max;
  }

  // Scripted faults override/augment the probabilistic draw.
  for (auto [it, end] = script_.equal_range(index); it != end; ++it) {
    switch (it->second.kind) {
      case FaultKind::kDrop:
        drop = true;
        break;
      case FaultKind::kCorrupt:
        corrupt = true;
        break;
      case FaultKind::kDelay:
        jitter += it->second.delay;
        break;
    }
  }

  if (drop) {
    v.drop = true;
    count(drops_, "drops");
    return v;  // a dropped packet is neither corrupted nor delayed
  }
  if (corrupt) {
    v.corrupt = true;
    count(corruptions_, "corruptions");
  }
  if (jitter > 0) {
    v.extra_delay = jitter;
    if (delays_ == nullptr) {
      delays_ = &stats_->counter("fault.delays");
      jitter_ns_ = &stats_->accumulator("fault.jitter_ns");
    }
    ++*delays_;
    jitter_ns_->add(sim::to_ns(jitter));
  }
  return v;
}

void LinkFaultInjector::count(std::uint64_t* (&handles)[2], const char* what) {
  if (handles[0] == nullptr) {
    handles[0] = &stats_->counter(std::string("fault.") + what);
    handles[1] = &stats_->counter("fault." + name_ + "." + what);
  }
  ++*handles[0];
  ++*handles[1];
}

FaultModel::FaultModel(FaultConfig config) : config_(std::move(config)) {}

LinkFaultInjector* FaultModel::injector_for(const std::string& link_name) {
  auto it = injectors_.find(link_name);
  if (it != injectors_.end()) return it->second.get();

  LinkFaultProfile profile = config_.default_profile;
  auto po = config_.per_link.find(link_name);
  if (po != config_.per_link.end()) profile = po->second;

  auto injector = std::make_unique<LinkFaultInjector>(link_name, profile,
                                                      config_.seed, stats_);
  for (const auto& f : config_.script) {
    if (f.link == link_name) injector->add_scripted(f);
  }
  auto* raw = injector.get();
  injectors_.emplace(link_name, std::move(injector));
  return raw;
}

void FaultModel::export_stats(sim::StatRegistry& reg) const {
  for (const auto& [name, value] : stats_.counters()) {
    reg.counter(name) += value;
  }
  for (const auto& [name, acc] : stats_.accumulators()) {
    // Accumulators cannot be merged exactly; copy when absent (the common
    // case: one model exporting into one report registry).
    if (reg.accumulators().find(name) == reg.accumulators().end()) {
      reg.accumulator(name) = acc;
    }
  }
}

}  // namespace gputn::fault
