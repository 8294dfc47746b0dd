#include "obs/export.hpp"

#if SEMPERM_TRACE

#include <cstdio>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/session.hpp"

namespace semperm::obs {

namespace {

void escape_json(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

char phase_of(EventKind kind) {
  switch (kind) {
    case EventKind::kInstant:
      return 'i';
    case EventKind::kBegin:
      return 'B';
    case EventKind::kEnd:
      return 'E';
    case EventKind::kCounter:
      return 'C';
  }
  return 'i';
}

/// Counter tracks are named "<track>/<name>" so each component gets
/// its own counter lane in Perfetto.
void write_event_name(std::ostream& os, const MergedEvent& me,
                      TraceSession& session) {
  if (me.ev.track != 0) {
    escape_json(os, session.track_name(me.ev.track));
    if (me.ev.name[0] != '\0') os << '/';
  }
  escape_json(os, me.ev.name);
}

}  // namespace

void chrome_trace_json(std::ostream& os) {
  TraceSession& session = TraceSession::instance();
  const auto events = session.snapshot();
  const auto sinks = session.summaries();

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& sink : sinks) {
    if (sink.thread_name.empty()) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":"
       << sink.tid << ",\"args\":{\"name\":\"";
    escape_json(os, sink.thread_name);
    os << "\"}}";
  }
  for (const auto& me : events) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"" << phase_of(me.ev.kind) << "\",\"name\":\"";
    write_event_name(os, me, session);
    // Chrome-trace "ts" is microseconds: 1 simulated cycle is exported
    // as 1 us, so the Perfetto ruler reads directly in cycles.
    os << "\",\"cat\":\"" << category_name(me.ev.cat)
       << "\",\"pid\":0,\"tid\":" << me.tid << ",\"ts\":" << me.ev.sim;
    switch (me.ev.kind) {
      case EventKind::kInstant:
        os << ",\"s\":\"t\",\"args\":{\"arg\":" << me.ev.arg << ",\"value\":"
           << json_number(me.ev.value) << "}";
        break;
      case EventKind::kBegin:
      case EventKind::kEnd:
        os << ",\"args\":{\"arg\":" << me.ev.arg << ",\"value\":"
           << json_number(me.ev.value) << "}";
        break;
      case EventKind::kCounter:
        os << ",\"args\":{\"value\":" << json_number(me.ev.value) << "}";
        break;
    }
    os << ",\"sim_cycles\":" << me.ev.sim << ",\"wall_ns\":" << me.ev.wall_ns
       << "}";
  }
  os << "],\"otherData\":{\"clock_domain\":\"simulated_cycles\""
     << ",\"sinks\":" << sink_accounting_json_fragment() << "}}\n";
}

void timeseries_csv(std::ostream& os) {
  TraceSession& session = TraceSession::instance();
  os << "ts,tid,cat,track,name,value\n";
  for (const auto& me : session.snapshot()) {
    if (me.ev.kind != EventKind::kCounter) continue;
    os << me.ev.sim << ',' << me.tid << ',' << category_name(me.ev.cat) << ','
       << session.track_name(me.ev.track) << ',' << me.ev.name << ','
       << json_number(me.ev.value) << '\n';
  }
}

std::string timeseries_json_fragment() {
  TraceSession& session = TraceSession::instance();
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (const auto& me : session.snapshot()) {
    if (me.ev.kind != EventKind::kCounter) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"ts\":" << me.ev.sim << ",\"tid\":" << me.tid << ",\"cat\":\""
       << category_name(me.ev.cat) << "\",\"track\":\"";
    escape_json(os, session.track_name(me.ev.track));
    os << "\",\"name\":\"";
    escape_json(os, me.ev.name);
    os << "\",\"value\":" << json_number(me.ev.value) << '}';
  }
  os << ']';
  return os.str();
}

std::string sink_accounting_json_fragment() {
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (const auto& sink : TraceSession::instance().summaries()) {
    if (!first) os << ',';
    first = false;
    os << "{\"tid\":" << sink.tid << ",\"name\":\"";
    escape_json(os, sink.thread_name);
    os << "\",\"attempts\":" << sink.attempts << ",\"stored\":" << sink.stored
       << ",\"sampled_out\":" << sink.sampled_out
       << ",\"dropped\":" << sink.dropped << '}';
  }
  os << ']';
  return os.str();
}

}  // namespace semperm::obs

#endif  // SEMPERM_TRACE
