#include "obs/critical.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "net/wire.hpp"
#include "sim/json.hpp"
#include "sim/trace.hpp"

namespace gputn::obs {

namespace json = ::gputn::sim::json;

namespace {

// net::Message kinds the path grouping cares about (nic/nic.hpp MsgKind;
// the values are wire-visible protocol constants, not private state).
constexpr std::uint32_t kKindPut = 1;
constexpr std::uint32_t kKindGetReq = 3;

/// Fixed category order: chain order, op-level category last. Rendering
/// ranks by weight, but iteration anywhere else uses this order.
constexpr const char* kCategories[] = {
    "trigger_wait", "qp_batch",  "doorbell",     "cmd_queue",
    "throttle",     "tx_proc",   "retransmit",   "wire",
    "switch_queue", "deposit",   "server_proc",
};

/// Contribution of segment [from, to); stamps that did not occur (from < 0)
/// or inverted pairs contribute nothing.
std::int64_t seg(std::int64_t from, std::int64_t to) {
  return (from >= 0 && to > from) ? to - from : 0;
}

/// The exemplar-trace lane a blame segment is drawn on.
enum class Lane { kSource, kNet, kDest };

/// One blame segment of a leg: `category` owns the time [from, to).
struct Segment {
  const char* category;
  std::int64_t from;
  std::int64_t to;
  Lane lane;
};

/// A leg's blame segments in chain order: the one list blame_leg sums and
/// the exemplar trace draws. Measured wire time [t_wire, t_rx) splits into
/// the ideal wire model's share (capped at the measurement) and the switch
/// queueing beyond it; a leg with no measured wire time has neither.
template <class F>
void for_each_segment(const FlightLeg& l, const net::WireParams& w, F&& f) {
  std::int64_t first = l.t_wire_first >= 0 ? l.t_wire_first : l.t_wire;
  f(Segment{"trigger_wait", l.t_trigger, l.t_cmd, Lane::kSource});
  f(Segment{"qp_batch", l.t_post, l.t_ring, Lane::kSource});
  f(Segment{"doorbell", l.t_ring, l.t_cmd, Lane::kSource});
  f(Segment{"cmd_queue", l.t_cmd, l.t_pop, Lane::kSource});
  f(Segment{"throttle", l.t_pop, l.t_admit, Lane::kSource});
  f(Segment{"tx_proc", l.t_admit, first, Lane::kSource});
  f(Segment{"retransmit", first, l.t_wire, Lane::kSource});
  if (seg(l.t_wire, l.t_rx) > 0) {
    std::int64_t ideal_end =
        l.t_wire + std::min(net::ideal_wire(w, l.bytes, l.hops).total(),
                            l.t_rx - l.t_wire);
    f(Segment{"wire", l.t_wire, ideal_end, Lane::kNet});
    f(Segment{"switch_queue", ideal_end, l.t_rx, Lane::kNet});
  }
  f(Segment{"deposit", l.t_rx, l.t_deposit, Lane::kDest});
}

void blame_leg(const FlightLeg& l, const net::WireParams& w,
               std::map<std::string, std::int64_t>& out) {
  for_each_segment(l, w, [&](const Segment& s) {
    out[s.category] += seg(s.from, s.to);
  });
}

// ---- dump parsing ---------------------------------------------------------

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("flight dump: " + what);
}

double num(const json::Value& obj, const std::string& key, double dflt = 0.0) {
  if (!obj.has(key)) return dflt;
  const json::Value& v = obj.at(key);
  if (!v.is_number()) bad("field '" + key + "' is not a number");
  return v.number;
}

std::string str(const json::Value& obj, const std::string& key) {
  if (!obj.has(key)) return {};
  return obj.at(key).string;
}

std::int64_t stamp(const json::Value& stamps, const char* key) {
  // Omitted stamp = the stage did not occur.
  return static_cast<std::int64_t>(num(stamps, key, -1.0));
}

FlightLeg parse_leg(const json::Value& v) {
  if (!v.is_object()) bad("leg is not an object");
  FlightLeg l;
  l.flow = static_cast<std::uint64_t>(num(v, "flow"));
  l.src = static_cast<int>(num(v, "src", -1.0));
  l.dst = static_cast<int>(num(v, "dst", -1.0));
  l.kind = static_cast<std::uint32_t>(num(v, "kind"));
  l.bytes = static_cast<std::uint64_t>(num(v, "bytes"));
  l.retransmits = static_cast<std::uint32_t>(num(v, "retransmits"));
  // Dumps from single-switch builds omit the field; one hop is exact there.
  l.hops = static_cast<std::uint32_t>(num(v, "hops", 1.0));
  if (l.hops == 0) l.hops = 1;
  if (!v.has("stamps") || !v.at("stamps").is_object()) {
    bad("leg has no stamps object");
  }
  const json::Value& st = v.at("stamps");
  l.t_trigger = stamp(st, "trigger");
  l.t_post = stamp(st, "post");
  l.t_ring = stamp(st, "ring");
  l.t_cmd = stamp(st, "cmd");
  l.t_pop = stamp(st, "pop");
  l.t_admit = stamp(st, "admit");
  l.t_wire_first = stamp(st, "wire_first");
  l.t_wire = stamp(st, "wire");
  l.t_switch = stamp(st, "switch");
  l.t_rx = stamp(st, "rx");
  l.t_deposit = stamp(st, "deposit");
  return l;
}

OpRecord parse_op(const json::Value& v) {
  if (!v.is_object() || !v.has("req")) bad("op without a req leg");
  OpRecord op;
  // op_tag is written as a string (64-bit values exceed double precision);
  // accept a plain number too for hand-written test fixtures.
  if (v.has("op_tag") && v.at("op_tag").kind == json::Value::Kind::kString) {
    op.op_tag = std::strtoull(v.at("op_tag").string.c_str(), nullptr, 10);
  } else {
    op.op_tag = static_cast<std::uint64_t>(num(v, "op_tag"));
  }
  op.tenant = static_cast<std::int32_t>(num(v, "tenant", -1.0));
  op.req = parse_leg(v.at("req"));
  if (v.has("resp")) op.resp = parse_leg(v.at("resp"));
  return op;
}

AnalyzedRun parse_run(const json::Value& v, std::string id) {
  if (!v.is_object() || !v.has("ops") || !v.at("ops").is_array()) {
    bad("run object has no ops array");
  }
  AnalyzedRun run;
  run.id = std::move(id);
  run.workload = str(v, "workload");
  run.mode = str(v, "mode");
  if (v.has("wire") && v.at("wire").is_object()) {
    const json::Value& w = v.at("wire");
    run.wire.bytes_per_sec = num(w, "bytes_per_sec");
    run.wire.link_latency_ps =
        static_cast<std::int64_t>(num(w, "link_latency_ps"));
    run.wire.switch_latency_ps =
        static_cast<std::int64_t>(num(w, "switch_latency_ps"));
    run.wire.mtu_bytes = static_cast<std::uint32_t>(num(w, "mtu_bytes"));
    run.wire.header_bytes = static_cast<std::uint32_t>(num(w, "header_bytes"));
    run.wire.per_packet_overhead =
        static_cast<std::uint32_t>(num(w, "per_packet_overhead"));
  }
  run.offered = static_cast<std::uint64_t>(num(v, "offered"));
  run.recorded = static_cast<std::uint64_t>(num(v, "recorded"));
  for (const json::Value& o : *v.at("ops").array) {
    run.ops.push_back(parse_op(o));
  }
  if (v.has("exemplars")) {
    const json::Value& ex = v.at("exemplars");
    if (!ex.is_object()) bad("exemplars is not an object");
    for (const auto& [tenant_str, arr] : *ex.object) {
      if (!arr.is_array()) bad("exemplar list is not an array");
      std::int32_t tenant =
          static_cast<std::int32_t>(std::strtol(tenant_str.c_str(), nullptr,
                                                10));
      for (const json::Value& o : *arr.array) {
        run.exemplars[tenant].push_back(parse_op(o));
      }
    }
  }
  return run;
}

// ---- table building -------------------------------------------------------

struct CategoryBuild {
  std::uint64_t count = 0;
  std::uint64_t total_ps = 0;
  sim::Histogram hist;  ///< nonzero contributions, ns
};

void build_paths(AnalyzedRun& run) {
  struct PathBuild {
    std::uint64_t ops = 0;
    sim::Histogram latency;
    std::map<std::string, CategoryBuild> cats;
  };
  std::map<std::string, PathBuild> builds;
  for (const OpRecord& op : run.ops) {
    PathBuild& b = builds[op_path(op)];
    ++b.ops;
    std::int64_t lat = op.latency();
    b.latency.add(lat > 0 ? static_cast<std::uint64_t>(lat) / 1000 : 0);
    for (const auto& [cat, ps] : blame_op(op, run.wire)) {
      if (ps <= 0) continue;
      CategoryBuild& c = b.cats[cat];
      ++c.count;
      c.total_ps += static_cast<std::uint64_t>(ps);
      c.hist.add(static_cast<std::uint64_t>(ps) / 1000);
    }
  }
  for (auto& [path, b] : builds) {
    PathTable t;
    t.path = path;
    t.ops = b.ops;
    t.latency = b.latency;
    std::uint64_t grand = 0;
    for (const auto& [cat, c] : b.cats) grand += c.total_ps;
    for (const auto& [cat, c] : b.cats) {
      CategoryRow row;
      row.category = cat;
      row.count = c.count;
      row.total_ps = c.total_ps;
      row.share_pct =
          grand > 0 ? 100.0 * static_cast<double>(c.total_ps) /
                          static_cast<double>(grand)
                    : 0.0;
      row.p50_ns = c.hist.quantile(0.50);
      row.p99_ns = c.hist.quantile(0.99);
      row.p999_ns = c.hist.quantile(0.999);
      row.max_ns = c.hist.max();
      t.rows.push_back(row);
    }
    std::sort(t.rows.begin(), t.rows.end(),
              [](const CategoryRow& a, const CategoryRow& b2) {
                if (a.total_ps != b2.total_ps) return a.total_ps > b2.total_ps;
                return a.category < b2.category;
              });
    run.paths.push_back(std::move(t));
  }
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

}  // namespace

std::map<std::string, std::int64_t> blame_op(const OpRecord& op,
                                             const net::WireParams& wire) {
  std::map<std::string, std::int64_t> out;
  blame_leg(op.req, wire, out);
  if (op.has_resp()) {
    // The gap between the request landing and the response being issued is
    // the server: CPU proxy scan + compute + post, or GPU poll + compute +
    // trigger store.
    out["server_proc"] += seg(op.req.t_deposit, op.resp.start());
    blame_leg(op.resp, wire, out);
  }
  return out;
}

std::string op_path(const OpRecord& op) {
  if (op.has_resp()) {
    if (op.req.kind == kKindGetReq) return "get";
    if (op.req.kind == kKindPut) return "put";
  }
  return "oneway";
}

std::uint64_t op_id(const OpRecord& op) {
  return op.op_tag != 0 ? op.op_tag : op.req.flow;
}

Analysis analyze_flight(const std::string& json_text, std::string source) {
  json::Value doc = json::parse(json_text);
  Analysis a;
  a.source = std::move(source);
  if (doc.is_array()) {
    // Merged --replicas dump: [{"id": ..., "flight": {...}}, ...].
    for (const json::Value& entry : *doc.array) {
      if (!entry.is_object() || !entry.has("flight")) {
        bad("merged entry without a flight object");
      }
      a.runs.push_back(parse_run(entry.at("flight"), str(entry, "id")));
    }
  } else if (doc.is_object()) {
    a.runs.push_back(parse_run(doc, ""));
  } else {
    bad("document is neither an object nor an array");
  }
  for (AnalyzedRun& run : a.runs) build_paths(run);
  return a;
}

std::string render_analysis(const Analysis& a, const AnalyzeOptions& opt) {
  std::string out;
  out += "flight analysis: " + a.source + "\n";
  for (const AnalyzedRun& run : a.runs) {
    out += "\n== run";
    if (!run.id.empty()) out += " " + run.id;
    out += ": " + (run.workload.empty() ? "?" : run.workload) + " / " +
           (run.mode.empty() ? "?" : run.mode) + "  (ops offered " +
           std::to_string(run.offered) + ", recorded " +
           std::to_string(run.recorded) + ")\n";
    for (const PathTable& t : run.paths) {
      out += "-- path " + t.path + ": " + std::to_string(t.ops) +
             " ops, latency ns p50=" + fmt("%.0f", t.latency.quantile(0.5)) +
             " p99=" + fmt("%.0f", t.latency.quantile(0.99)) +
             " p999=" + fmt("%.0f", t.latency.quantile(0.999)) +
             " max=" + fmt("%.0f", t.latency.max()) + "\n";
      out += "   category       count     total_us  share%       p50_ns"
             "       p99_ns      p999_ns       max_ns\n";
      int shown = 0;
      for (const CategoryRow& r : t.rows) {
        if (opt.top > 0 && shown++ >= opt.top) break;
        char line[256];
        std::snprintf(line, sizeof line,
                      "   %-13s %6llu %12.1f  %5.1f%% %12.0f %12.0f %12.0f"
                      " %12.0f\n",
                      r.category.c_str(),
                      static_cast<unsigned long long>(r.count),
                      static_cast<double>(r.total_ps) / 1e6, r.share_pct,
                      r.p50_ns, r.p99_ns, r.p999_ns, r.max_ns);
        out += line;
      }
    }
    bool any_ex = false;
    for (const auto& [tenant, ops] : run.exemplars) {
      for (const OpRecord& op : ops) {
        if (!any_ex) {
          out += "-- tail exemplars (use `gputn analyze FILE --exemplar ID "
                 "--trace OUT.json` to dump one)\n";
          any_ex = true;
        }
        // Heaviest category of this op, for at-a-glance blame.
        std::string top_cat = "-";
        std::int64_t top_ps = 0;
        for (const auto& [cat, ps] : blame_op(op, run.wire)) {
          if (ps > top_ps) {
            top_ps = ps;
            top_cat = cat;
          }
        }
        char line[256];
        std::snprintf(line, sizeof line,
                      "   tenant %3d  id=%llu  path=%s  latency_ns=%lld"
                      "  top=%s(%.0fns)  retx=%u\n",
                      tenant, static_cast<unsigned long long>(op_id(op)),
                      op_path(op).c_str(),
                      static_cast<long long>(op.latency() / 1000),
                      top_cat.c_str(), static_cast<double>(top_ps) / 1e3,
                      op.req.retransmits + op.resp.retransmits);
        out += line;
      }
    }
  }
  return out;
}

AnalyzeDiff diff_analyses(const Analysis& cur, const Analysis& base,
                          const AnalyzeOptions& opt) {
  AnalyzeDiff d;
  d.text += "blame diff: " + cur.source + " vs " + base.source + "\n";
  auto find_base_run = [&](const AnalyzedRun& c,
                           std::size_t pos) -> const AnalyzedRun* {
    if (!c.id.empty()) {
      for (const AnalyzedRun& b : base.runs) {
        if (b.id == c.id) return &b;
      }
      return nullptr;
    }
    return pos < base.runs.size() ? &base.runs[pos] : nullptr;
  };
  auto gate = [&](const std::string& label, double cur_v, double base_v) {
    double pct;
    if (base_v > 0.0) {
      pct = 100.0 * (cur_v - base_v) / base_v;
    } else {
      pct = cur_v > 0.0 ? 1e9 : 0.0;  // appeared from nothing
    }
    bool reg = pct > opt.threshold_pct;
    if (reg || cur_v != base_v) {
      char line[256];
      std::snprintf(line, sizeof line, "  %-44s %12.0f -> %12.0f  %+8.1f%%%s\n",
                    label.c_str(), base_v, cur_v,
                    base_v > 0.0 ? 100.0 * (cur_v - base_v) / base_v
                                 : (cur_v > 0.0 ? 999.9 : 0.0),
                    reg ? "  REGRESSION" : "");
      d.text += line;
    }
    if (reg) ++d.regressions;
  };
  for (std::size_t i = 0; i < cur.runs.size(); ++i) {
    const AnalyzedRun& c = cur.runs[i];
    const AnalyzedRun* b = find_base_run(c, i);
    std::string rid = c.id.empty() ? "run" : "run " + c.id;
    if (b == nullptr) {
      d.text += "  " + rid + ": no baseline counterpart (not gated)\n";
      continue;
    }
    for (const PathTable& ct : c.paths) {
      const PathTable* bt = nullptr;
      for (const PathTable& t : b->paths) {
        if (t.path == ct.path) bt = &t;
      }
      if (bt == nullptr) {
        d.text += "  " + rid + "/" + ct.path +
                  ": path absent in baseline (not gated)\n";
        continue;
      }
      std::string prefix = rid + "/" + ct.path;
      gate(prefix + ".latency.p999_ns", ct.latency.quantile(0.999),
           bt->latency.quantile(0.999));
      for (const CategoryRow& cr : ct.rows) {
        const CategoryRow* br = nullptr;
        for (const CategoryRow& r : bt->rows) {
          if (r.category == cr.category) br = &r;
        }
        if (br == nullptr) continue;  // category appeared: informational only
        gate(prefix + "." + cr.category + ".p99_ns", cr.p99_ns, br->p99_ns);
        gate(prefix + "." + cr.category + ".p999_ns", cr.p999_ns,
             br->p999_ns);
      }
    }
  }
  d.text += d.regressions == 0
                ? "OK: no blame metric regressed\n"
                : "FAIL: " + std::to_string(d.regressions) +
                      " blame metric(s) regressed past " +
                      fmt("%.1f", opt.threshold_pct) + "%\n";
  return d;
}

bool dump_exemplar_trace(const AnalyzedRun& run, std::uint64_t selector,
                         const std::string& path) {
  const OpRecord* found = nullptr;
  for (const auto& [tenant, ops] : run.exemplars) {
    for (const OpRecord& op : ops) {
      if (op_id(op) == selector) found = &op;
    }
  }
  if (found == nullptr) {
    for (const OpRecord& op : run.ops) {
      if (op_id(op) == selector) found = &op;
    }
  }
  if (found == nullptr) return false;

  sim::TraceRecorder tr;
  const std::string net_lane = "net";
  auto leg_spans = [&](const FlightLeg& l, const std::string& src_lane,
                       const std::string& dst_lane) {
    for_each_segment(l, run.wire, [&](const Segment& s) {
      if (s.lane == Lane::kDest && l.t_switch >= 0) {
        tr.instant(net_lane, "at-switch", "blame", l.t_switch);
      }
      const std::string& lane = s.lane == Lane::kSource ? src_lane
                                : s.lane == Lane::kNet  ? net_lane
                                                        : dst_lane;
      if (s.category == std::string_view("wire")) {
        // Drawn even when empty, labelled with the leg's size.
        tr.span(lane, s.category, "blame", s.from, s.to,
                "{\"bytes\":" + std::to_string(l.bytes) + "}");
      } else if (s.from >= 0 && s.to > s.from) {
        tr.span(lane, s.category, "blame", s.from, s.to);
      }
    });
  };
  leg_spans(found->req, "initiator", found->has_resp() ? "server"
                                                       : "target");
  if (found->has_resp()) {
    if (found->req.t_deposit >= 0 &&
        found->resp.start() > found->req.t_deposit) {
      tr.span("server", "server_proc", "blame", found->req.t_deposit,
              found->resp.start(),
              "{\"op_tag\":" + std::to_string(found->op_tag) + "}");
    }
    leg_spans(found->resp, "server", "initiator");
  }
  return tr.write_json(path);
}

}  // namespace gputn::obs
