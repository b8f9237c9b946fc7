#include "obs/flight.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace gputn::obs {

namespace {

// splitmix64 finalizer: cheap, well-distributed 64-bit mix. The keep
// decision must look uniform over op keys even when tags are structured
// (serve packs server/slot/round into bit fields).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void append_stamp(std::string& out, const char* name, std::int64_t v,
                  bool& first) {
  if (v < 0) return;  // stage did not occur: omit rather than emit -1
  if (!first) out += ',';
  first = false;
  out += '"';
  out += name;
  out += "\":";
  out += std::to_string(v);
}

void append_leg(std::string& out, const FlightLeg& leg) {
  out += "{\"flow\":" + std::to_string(leg.flow) +
         ",\"src\":" + std::to_string(leg.src) +
         ",\"dst\":" + std::to_string(leg.dst) +
         ",\"kind\":" + std::to_string(leg.kind) +
         ",\"bytes\":" + std::to_string(leg.bytes) +
         ",\"retransmits\":" + std::to_string(leg.retransmits) +
         ",\"hops\":" + std::to_string(leg.hops) + ",\"stamps\":{";
  bool first = true;
  append_stamp(out, "trigger", leg.t_trigger, first);
  append_stamp(out, "post", leg.t_post, first);
  append_stamp(out, "ring", leg.t_ring, first);
  append_stamp(out, "cmd", leg.t_cmd, first);
  append_stamp(out, "pop", leg.t_pop, first);
  append_stamp(out, "admit", leg.t_admit, first);
  append_stamp(out, "wire_first", leg.t_wire_first, first);
  append_stamp(out, "wire", leg.t_wire, first);
  append_stamp(out, "switch", leg.t_switch, first);
  append_stamp(out, "rx", leg.t_rx, first);
  append_stamp(out, "deposit", leg.t_deposit, first);
  out += "}}";
}

void append_op(std::string& out, const OpRecord& op) {
  // op_tag is a string on purpose: serve tags use the full 64-bit range,
  // which a double-backed JSON number parser would round past 2^53.
  out += "{\"op_tag\":\"" + std::to_string(op.op_tag) +
         "\",\"tenant\":" + std::to_string(op.tenant) +
         ",\"latency_ps\":" + std::to_string(op.latency()) + ",\"req\":";
  append_leg(out, op.req);
  if (op.has_resp()) {
    out += ",\"resp\":";
    append_leg(out, op.resp);
  }
  out += '}';
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void replay_spools(std::vector<FlightSpool*> spools, FlightSink& sink) {
  std::vector<FlightSpool::Entry> all;
  for (FlightSpool* s : spools) {
    if (s == nullptr) continue;
    auto& e = s->entries();
    all.insert(all.end(), std::make_move_iterator(e.begin()),
               std::make_move_iterator(e.end()));
    e.clear();
  }
  // Per-node order (node, seq) follows each node's event sequence; the
  // global order interleaves nodes by recording time.
  std::sort(all.begin(), all.end(),
            [](const FlightSpool::Entry& a, const FlightSpool::Entry& b) {
              if (a.t_record != b.t_record) return a.t_record < b.t_record;
              if (a.node != b.node) return a.node < b.node;
              return a.seq < b.seq;
            });
  for (auto& e : all) sink.record(e.leg, e.op_tag, e.tenant);
}

FlightRecorder::FlightRecorder(FlightConfig cfg) : cfg_(cfg) {
  if (cfg_.capacity == 0) cfg_.capacity = 1;
  if (cfg_.sample_period == 0) cfg_.sample_period = 1;
  if (cfg_.exemplars_per_tenant < 0) cfg_.exemplars_per_tenant = 0;
}

bool FlightRecorder::sampled(std::uint64_t key, std::uint64_t seed,
                             std::uint64_t period) {
  if (period <= 1) return true;
  return mix64(key ^ mix64(seed)) % period == 0;
}

void FlightRecorder::record(const FlightLeg& leg, std::uint64_t op_tag,
                            std::int32_t tenant) {
  ++arrivals_;
  if (op_tag == 0) {
    OpRecord op;
    op.tenant = tenant;
    op.req = leg;
    finish_op(std::move(op));
    return;
  }
  auto it = pending_.find(op_tag);
  if (it == pending_.end()) {
    pending_.emplace(op_tag, Pending{leg, tenant, arrivals_});
    return;
  }
  OpRecord op;
  op.op_tag = op_tag;
  // The first leg carries the op's tenant; a reply that lost the tag in a
  // protocol corner still inherits it from the request.
  op.tenant = it->second.tenant >= 0 ? it->second.tenant : tenant;
  op.req = it->second.leg;
  op.resp = leg;
  pending_.erase(it);
  finish_op(std::move(op));
}

void FlightRecorder::finish_op(OpRecord&& op) {
  ++offered_;
  std::uint64_t key = op.op_tag != 0 ? op.op_tag : op.req.flow;
  if (sampled(key, cfg_.seed, cfg_.sample_period)) {
    if (ring_.size() == cfg_.capacity) {
      ring_.pop_front();
      ++evicted_;
    }
    ring_.push_back(op);
  }
  if (cfg_.exemplars_per_tenant == 0) return;
  // Tail exemplars: keep the K slowest per tenant regardless of sampling.
  // Insertion sort into a K-bounded vector; ties break towards the earlier
  // flow id so the set is independent of completion-order perturbations.
  auto& ex = exemplars_[op.tenant];
  auto slower = [](const OpRecord& a, const OpRecord& b) {
    if (a.latency() != b.latency()) return a.latency() > b.latency();
    return a.req.flow < b.req.flow;
  };
  auto pos = std::upper_bound(ex.begin(), ex.end(), op, slower);
  if (pos == ex.end() &&
      ex.size() >= static_cast<std::size_t>(cfg_.exemplars_per_tenant)) {
    return;
  }
  ex.insert(pos, std::move(op));
  if (ex.size() > static_cast<std::size_t>(cfg_.exemplars_per_tenant)) {
    ex.pop_back();
  }
}

std::vector<OpRecord> FlightRecorder::exemplars(std::int32_t tenant) const {
  auto it = exemplars_.find(tenant);
  return it == exemplars_.end() ? std::vector<OpRecord>{} : it->second;
}

void FlightRecorder::flush_pending() {
  if (pending_.empty()) return;
  // Unmatched legs (ops whose partner never completed, or genuinely one-way
  // tagged traffic) become single-leg ops. Flush in arrival order so the
  // dump is independent of map iteration quirks across platforms.
  std::vector<std::pair<std::uint64_t, Pending>> left(pending_.begin(),
                                                      pending_.end());
  pending_.clear();
  std::sort(left.begin(), left.end(),
            [](const auto& a, const auto& b) {
              return a.second.order < b.second.order;
            });
  for (auto& [tag, p] : left) {
    OpRecord op;
    op.op_tag = tag;
    op.tenant = p.tenant;
    op.req = p.leg;
    finish_op(std::move(op));
  }
}

std::string FlightRecorder::json() {
  flush_pending();
  std::string out;
  out.reserve(256 + ring_.size() * 384);
  out += "{\"workload\":\"" + escape(label_) + "\",\"mode\":\"" +
         escape(mode_) + "\"";
  out += ",\"wire\":{\"bytes_per_sec\":" +
         std::to_string(static_cast<std::uint64_t>(wire_.bytes_per_sec)) +
         ",\"link_latency_ps\":" + std::to_string(wire_.link_latency_ps) +
         ",\"switch_latency_ps\":" + std::to_string(wire_.switch_latency_ps) +
         ",\"mtu_bytes\":" + std::to_string(wire_.mtu_bytes) +
         ",\"header_bytes\":" + std::to_string(wire_.header_bytes) +
         ",\"per_packet_overhead\":" +
         std::to_string(wire_.per_packet_overhead) + "}";
  out += ",\"sample_period\":" + std::to_string(cfg_.sample_period) +
         ",\"seed\":" + std::to_string(cfg_.seed) +
         ",\"capacity\":" + std::to_string(cfg_.capacity) +
         ",\"offered\":" + std::to_string(offered_) +
         ",\"recorded\":" + std::to_string(ring_.size()) +
         ",\"evicted\":" + std::to_string(evicted_);
  out += ",\"ops\":[";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (i != 0) out += ',';
    append_op(out, ring_[i]);
  }
  out += "],\"exemplars\":{";
  bool first_tenant = true;
  for (const auto& [tenant, ops] : exemplars_) {
    if (!first_tenant) out += ',';
    first_tenant = false;
    out += '"' + std::to_string(tenant) + "\":[";
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i != 0) out += ',';
      append_op(out, ops[i]);
    }
    out += ']';
  }
  out += "}}";
  return out;
}

std::string merged_flight_json(
    std::vector<std::pair<std::string, FlightRecorder*>> points) {
  std::string out = "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"id\":\"" + escape(points[i].first) + "\",\"flight\":" +
           points[i].second->json() + '}';
  }
  out += ']';
  return out;
}

}  // namespace gputn::obs
