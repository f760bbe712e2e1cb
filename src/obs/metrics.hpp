// Low-overhead metrics registry: counters, gauges and fixed-bucket
// histograms.
//
// Producers (the runtime, the power manager, device-model glue) obtain a
// metric once by name and then update it through a direct reference —
// there is no lookup, lock or allocation on the update path, so metrics
// can sit on the simulator's hot path. The registry is optional
// everywhere: producers hold a nullable pointer and skip registration
// entirely when observability is off, keeping sweep throughput unchanged.
//
// Names follow a dotted hierarchy ("rt.tasks_completed",
// "rt.exec_s.gemm", "power.cap_changes") so the JSON export groups
// naturally in downstream tooling.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace greencap::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram over doubles. Bucket i counts observations with
/// value <= bounds[i]; one implicit overflow bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }

 private:
  std::vector<double> bounds_;   // ascending upper edges
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Default histogram edges for durations in seconds: 1 us .. 100 s,
/// log-spaced, wide enough for both tile kernels and whole factorizations.
[[nodiscard]] std::vector<double> duration_buckets_s();

class MetricsRegistry {
 public:
  /// Returns the named metric, creating it on first use. References stay
  /// valid for the registry's lifetime (node-based map storage).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds = {});

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const { return counters_; }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, min, max, bounds, buckets}}}.
  void write_json(std::ostream& os) const;

  void clear();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace greencap::obs
