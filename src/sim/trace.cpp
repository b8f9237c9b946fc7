#include "sim/trace.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "sim/json.hpp"

namespace gputn::sim {

int TraceRecorder::lane_id(const std::string& lane) {
  auto it = lanes_.find(lane);
  if (it != lanes_.end()) return it->second;
  int id = static_cast<int>(lanes_.size()) + 1;
  lanes_.emplace(lane, id);
  return id;
}

void TraceRecorder::span(const std::string& lane, const std::string& name,
                         const std::string& category, Tick begin, Tick end,
                         std::string args) {
  events_.push_back(Event{lane_id(lane), name, category, begin,
                          end > begin ? end - begin : 0, Phase::kSpan, 0,
                          std::move(args)});
}

void TraceRecorder::instant(const std::string& lane, const std::string& name,
                            const std::string& category, Tick at,
                            std::string args) {
  events_.push_back(Event{lane_id(lane), name, category, at, 0,
                          Phase::kInstant, 0, std::move(args)});
}

void TraceRecorder::flow(Phase ph, const std::string& lane,
                         const std::string& name,
                         const std::string& category, Tick at,
                         std::uint64_t id, std::string args) {
  events_.push_back(
      Event{lane_id(lane), name, category, at, 0, ph, id, std::move(args)});
}

void TraceRecorder::flow_begin(const std::string& lane,
                               const std::string& name,
                               const std::string& category, Tick at,
                               std::uint64_t id, std::string args) {
  flow(Phase::kFlowStart, lane, name, category, at, id, std::move(args));
}

void TraceRecorder::flow_step(const std::string& lane,
                              const std::string& name,
                              const std::string& category, Tick at,
                              std::uint64_t id, std::string args) {
  flow(Phase::kFlowStep, lane, name, category, at, id, std::move(args));
}

void TraceRecorder::flow_end(const std::string& lane, const std::string& name,
                             const std::string& category, Tick at,
                             std::uint64_t id, std::string args) {
  flow(Phase::kFlowEnd, lane, name, category, at, id, std::move(args));
}

namespace {
/// Microsecond timestamp. Six decimals represent integer-picosecond ticks
/// exactly, so ts + dur of a span always equals the end tick a concurrent
/// event (e.g. a flow arrow terminator) was stamped with. Numbers only, so
/// a small fixed buffer cannot truncate anything.
std::string fmt_us(Tick t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", to_us(t));
  return buf;
}
}  // namespace

void TraceRecorder::write_json(std::ostream& os) const {
  os << "[\n";
  bool first = true;
  auto emit = [&os, &first](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };
  // Thread-name metadata so viewers show lane names. Event lines are built
  // with string concatenation: arbitrarily long lane/name/args strings are
  // emitted intact (no fixed-size formatting buffer to truncate them).
  for (const auto& [name, id] : lanes_) {
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(id) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         json_escape(name) + "\"}}");
  }
  for (const Event& e : events_) {
    std::string line = "{\"ph\":\"";
    line.push_back(static_cast<char>(e.phase));
    line += "\",\"pid\":1,\"tid\":" + std::to_string(e.lane) +
            ",\"name\":\"" + json_escape(e.name) + "\",\"cat\":\"" +
            json_escape(e.category) + "\",\"ts\":" + fmt_us(e.begin);
    switch (e.phase) {
      case Phase::kSpan:
        line += ",\"dur\":" + fmt_us(e.duration);
        break;
      case Phase::kInstant:
        line += ",\"s\":\"t\"";
        break;
      case Phase::kFlowStart:
      case Phase::kFlowStep:
        line += ",\"id\":" + std::to_string(e.flow_id);
        break;
      case Phase::kFlowEnd:
        // Bind the arrow head to the enclosing slice rather than the next
        // slice to begin on the lane.
        line += ",\"id\":" + std::to_string(e.flow_id) + ",\"bp\":\"e\"";
        break;
    }
    if (!e.args.empty()) line += ",\"args\":" + e.args;
    line += "}";
    emit(line);
  }
  os << "\n]\n";
}

std::string TraceRecorder::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

bool TraceRecorder::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_json(f);
  // Flush before the check: bytes that fail only on their way out (disk
  // full, dead mount) must fail the write, not vanish at close.
  f.flush();
  return f.good();
}

}  // namespace gputn::sim
