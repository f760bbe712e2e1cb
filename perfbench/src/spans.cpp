#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.end_ns = s.start_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(s);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the covered prefix of [lo, hi)
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

void write_spans_json(std::ostream& os, const std::vector<SpanLog>& logs) {
  os << "[";
  bool first = true;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    const std::vector<std::int64_t> self = self_times_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << (first ? "\n" : ",\n") << "{\"run\":" << s.run << ",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << ",\"parent\":" << s.parent << ",\"self_ns\":" << self[i] << "}";
      first = false;
    }
  }
  os << "\n]\n";
}

}  // namespace perfbench
