// Spans recorded by the benchmark around its calls into each library layer.
//
// A span is (name, start, end, parent, run). Each run owns one SpanLog,
// filled by the single thread executing the run, so recording needs no
// locks; logs are kept in memory and written out when the benchmark ends.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
[[nodiscard]] std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< a string literal, never owned
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same run's spans; -1 = root
  std::uint32_t run = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::uint32_t run = 0) : run_{run} {}

  /// Starts a span as a child of the innermost open one; returns its index.
  std::int32_t open(const char* name);
  /// Ends the span `index`, which must be the innermost open one.
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint32_t run() const { return run_; }

 private:
  std::uint32_t run_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_{log}, index_{log.open(name)} {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// One JSON array holding every span of every log, with its self time.
void write_spans_json(std::ostream& os, const std::vector<SpanLog>& logs);

}  // namespace perfbench
