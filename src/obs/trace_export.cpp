#include "obs/trace_export.hpp"

#include <algorithm>
#include <ostream>
#include <set>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace greencap::obs {

namespace {

constexpr int kWorkersPid = 1;
constexpr int kLinksPid = 2;
constexpr int kTelemetryPid = 3;
/// Trace convention: transfer spans use resource = 1000 + gpu index.
constexpr std::int32_t kLinkResourceBase = 1000;

/// Writes a metadata event up to its "name" argument; the caller writes the
/// label and closes the event with "}}".
JsonWriter& meta(JsonWriter& w, bool& first, const char* kind, int pid, int tid) {
  w.raw(first ? "\n    " : ",\n    ").raw("{\"name\": \"").raw(kind);
  first = false;
  w.raw("\", \"ph\": \"M\", \"pid\": ").integer(pid);
  if (tid >= 0) {
    w.raw(", \"tid\": ").integer(tid);
  }
  return w.raw(", \"args\": {\"name\": ");
}

}  // namespace

void write_chrome_trace(std::ostream& os, const sim::Trace& trace,
                        const ChromeTraceOptions& options) {
  JsonWriter w{os};
  w.raw("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
  bool first = true;

  // -- metadata: process/thread names ------------------------------------
  std::set<std::int32_t> workers;
  std::set<std::int32_t> links;
  for (const sim::Span& s : trace.spans()) {
    if (s.kind == sim::SpanKind::kTransfer && s.resource >= kLinkResourceBase) {
      links.insert(s.resource - kLinkResourceBase);
    } else {
      workers.insert(s.resource);
    }
  }
  meta(w, first, "process_name", kWorkersPid, -1).str("workers").raw("}}");
  for (const std::int32_t worker : workers) {
    meta(w, first, "thread_name", kWorkersPid, worker);
    const auto idx = static_cast<std::size_t>(worker);
    if (worker >= 0 && idx < options.worker_names.size()) {
      w.str(options.worker_names[idx]);
    } else {
      w.raw("\"worker").integer(worker).raw('"');
    }
    w.raw("}}");
  }
  if (!links.empty()) {
    meta(w, first, "process_name", kLinksPid, -1).str("links").raw("}}");
    for (const std::int32_t l : links) {
      meta(w, first, "thread_name", kLinksPid, l).raw("\"gpu").integer(l).raw(" link\"}}");
    }
  }
  if (options.telemetry != nullptr && !options.telemetry->empty()) {
    meta(w, first, "process_name", kTelemetryPid, -1).str("telemetry").raw("}}");
  }

  // -- spans as complete ("X") events ------------------------------------
  for (const sim::Span& s : trace.spans()) {
    const bool is_link = s.kind == sim::SpanKind::kTransfer && s.resource >= kLinkResourceBase;
    w.raw(first ? "\n    {" : ",\n    {").raw("\"name\": ").str(s.name);
    first = false;
    w.raw(", \"cat\": \"").raw(sim::to_string(s.kind));
    w.raw("\", \"ph\": \"X\", \"ts\": ").number(s.begin.us());
    w.raw(", \"dur\": ").number(std::max(0.0, s.duration().us()));
    w.raw(", \"pid\": ").integer(is_link ? kLinksPid : kWorkersPid);
    w.raw(", \"tid\": ").integer(is_link ? s.resource - kLinkResourceBase : s.resource);
    w.raw(", \"args\": {\"object\": ").integer(s.object).raw("}}");
  }

  // -- markers as global instant events ----------------------------------
  for (const sim::Marker& m : trace.markers()) {
    w.raw(first ? "\n    {" : ",\n    {").raw("\"name\": ").str(m.name);
    first = false;
    w.raw(", \"ph\": \"i\", \"s\": \"g\", \"ts\": ").number(m.when.us());
    w.raw(", \"pid\": ").integer(kWorkersPid).raw(", \"tid\": 0}");
  }

  // -- telemetry channels as counter tracks ------------------------------
  if (options.telemetry != nullptr) {
    const TelemetrySeries& series = *options.telemetry;
    for (std::size_t c = 0; c < series.channels().size(); ++c) {
      const TelemetryChannel& chan = series.channels()[c];
      const std::string_view unit = chan.unit.empty() ? std::string_view{"value"} : chan.unit;
      for (const TelemetrySample& sample : series.samples()) {
        w.raw(first ? "\n    {" : ",\n    {").raw("\"name\": ").str(chan.name);
        first = false;
        w.raw(", \"ph\": \"C\", \"ts\": ").number(sample.t.us());
        w.raw(", \"pid\": ").integer(kTelemetryPid).raw(", \"args\": {").str(unit);
        w.raw(": ").number(sample.values.at(c)).raw("}}");
      }
    }
  }

  w.raw(first ? "]\n" : "\n  ]\n").raw("}\n");
}

}  // namespace greencap::obs
