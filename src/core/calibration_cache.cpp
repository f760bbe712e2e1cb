#include "core/calibration_cache.hpp"

namespace greencap::core {

double CalibrationCache::best_cap_w(const std::string& key,
                                    const std::function<double()>& compute) {
  return lookup(caps_, key, compute);
}

const rt::CalibrationRecord& CalibrationCache::calibration(
    const std::string& key, const std::function<rt::CalibrationRecord()>& compute) {
  return lookup(calibrations_, key, compute);
}

std::uint64_t CalibrationCache::hits() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return hits_;
}

std::uint64_t CalibrationCache::misses() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return misses_;
}

}  // namespace greencap::core
