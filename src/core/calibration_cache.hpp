// Shared warmup cache for campaign runs.
//
// Two pieces of per-run setup are pure functions of the configuration and
// dominate short runs: the per-GPU best-cap sweep (power::find_best_cap_w)
// and the perf-model calibration campaign (an ordered list of history-model
// record() calls, see rt::CalibrationRecord). The cache memoizes both so a
// campaign computes each distinct key once and every other run reuses the
// immutable snapshot.
//
// Thread safety: lookups are safe from any number of worker threads. Each
// key computes exactly once — the compute runs under a per-entry mutex, so
// concurrent same-key callers block until it finishes, then all of them
// observe the same address-stable value (entries live behind unique_ptr and
// are never evicted). A compute that throws leaves the entry empty, so a
// later caller retries rather than caching a broken entry. (Not a
// std::once_flag: its retry after a throwing call never returns in a
// ThreadSanitizer build.)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "rt/calibration.hpp"

namespace greencap::core {

class CalibrationCache {
 public:
  CalibrationCache() = default;
  CalibrationCache(const CalibrationCache&) = delete;
  CalibrationCache& operator=(const CalibrationCache&) = delete;

  /// Best power cap for `key` (GPU arch + precision + tile size), computing
  /// it via `compute` on first use.
  double best_cap_w(const std::string& key, const std::function<double()>& compute);

  /// Calibration measurement log for `key`, computing it via `compute` on
  /// first use. The returned reference stays valid (and the record
  /// unchanged) for the cache's lifetime.
  const rt::CalibrationRecord& calibration(
      const std::string& key, const std::function<rt::CalibrationRecord()>& compute);

  /// Lookup counters (hit = entry already existed). Approximate under
  /// concurrency only in their ordering, never in their totals.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

 private:
  template <typename V>
  struct Entry {
    std::mutex mu;  ///< held while computing `value`
    std::optional<V> value;
  };

  /// Finds or creates the entry for `key`, bumping hit/miss counters, and
  /// computes its value unless an earlier call did.
  template <typename V>
  const V& lookup(std::map<std::string, std::unique_ptr<Entry<V>>>& entries,
                  const std::string& key, const std::function<V()>& compute) {
    Entry<V>* e = nullptr;
    {
      const std::lock_guard<std::mutex> lock{mu_};
      std::unique_ptr<Entry<V>>& slot = entries[key];
      if (slot == nullptr) {
        slot = std::make_unique<Entry<V>>();
        ++misses_;
      } else {
        ++hits_;
      }
      e = slot.get();
    }
    const std::lock_guard<std::mutex> lock{e->mu};
    if (!e->value) {
      e->value = compute();
    }
    return *e->value;
  }

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry<double>>> caps_;
  std::map<std::string, std::unique_ptr<Entry<rt::CalibrationRecord>>> calibrations_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace greencap::core
