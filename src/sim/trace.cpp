#include "sim/trace.hpp"

#include <algorithm>
#include <map>

namespace greencap::sim {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTask: return "task";
    case SpanKind::kTransfer: return "transfer";
  }
  return "?";
}

void Trace::add_span(Span span) {
  if (enabled_) {
    spans_.push_back(std::move(span));
  }
}

void Trace::add_marker(std::string name, SimTime when) {
  if (enabled_) {
    markers_.push_back(Marker{std::move(name), when});
  }
}

void Trace::clear() {
  spans_.clear();
  markers_.clear();
}

std::vector<Span> Trace::spans_on(std::int32_t resource) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.resource == resource) {
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.begin < b.begin; });
  return out;
}

SimTime Trace::busy_time(std::int32_t resource) const {
  SimTime total = SimTime::zero();
  for (const Span& s : spans_) {
    if (s.resource == resource) {
      total += s.duration();
    }
  }
  return total;
}

bool Trace::resource_spans_disjoint() const {
  std::map<std::int32_t, std::vector<Span>> by_resource;
  for (const Span& s : spans_) {
    // Transfers share links legitimately (modelled as bandwidth-shared), so
    // the disjointness invariant only applies to task execution spans.
    if (s.kind == SpanKind::kTask) {
      by_resource[s.resource].push_back(s);
    }
  }
  for (auto& [res, spans] : by_resource) {
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.begin < b.begin; });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i].begin < spans[i - 1].end) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace greencap::sim
