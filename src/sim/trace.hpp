// Execution tracing for simulated runs.
//
// The runtime and device models append spans (task executions, data
// transfers) and instant markers (power-cap changes) to a Trace. Tests use
// the trace to check schedule invariants (no overlapping spans on a worker,
// dependencies respected); tools can dump it as CSV for Gantt rendering.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace greencap::sim {

enum class SpanKind : std::uint8_t {
  kTask,      ///< a codelet execution on a worker
  kTransfer,  ///< a data movement on a link
};

[[nodiscard]] const char* to_string(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kTask;
  std::int32_t resource = -1;   ///< worker id or link id
  std::int64_t object = -1;     ///< task id / handle id, -1 if n/a
  std::string name;             ///< codelet name or transfer description
  SimTime begin;
  SimTime end;

  [[nodiscard]] SimTime duration() const { return end - begin; }
};

struct Marker {
  std::string name;   ///< e.g. "power_cap gpu0 216W"
  SimTime when;
};

class Trace {
 public:
  /// Tracing is off by default: experiment sweeps run thousands of
  /// simulations and only tests/tools need span capture.
  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void add_span(Span span);
  void add_marker(std::string name, SimTime when);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<Marker>& markers() const { return markers_; }

  void clear();

  /// Replaces the recorded spans/markers wholesale (checkpoint restore).
  /// The enabled flag is untouched: it is configuration, not history.
  void restore(std::vector<Span> spans, std::vector<Marker> markers) {
    spans_ = std::move(spans);
    markers_ = std::move(markers);
  }

  /// Spans on one resource, in begin-time order.
  [[nodiscard]] std::vector<Span> spans_on(std::int32_t resource) const;

  /// Total busy time (sum of span durations) of a resource.
  [[nodiscard]] SimTime busy_time(std::int32_t resource) const;

  /// True iff no two spans on the same resource overlap (touching
  /// endpoints allowed).
  [[nodiscard]] bool resource_spans_disjoint() const;

  /// CSV dump: kind,resource,object,name,begin_s,end_s
  void write_csv(std::ostream& os) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<Marker> markers_;
};

}  // namespace greencap::sim
