// Seeded inputs: the advisor-sweep query stream, shuffles, and the
// calibration-cache key the traced replay files records under.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "sim/rng.hpp"

namespace perfbench {

/// Fisher-Yates shuffle driven by the library's seeded generator, so one
/// seed means one order on every platform and standard library.
template <typename T>
void shuffle(std::vector<T>& items, std::uint64_t seed) {
  greencap::sim::Xoshiro256 rng{seed};
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[static_cast<std::size_t>(rng.below(i))]);
  }
}

/// The advisor-sweep stream: 2,000 small experiments over the three platform
/// presets, GEMM/POTRF/GETRF/GEQRF, both precisions, 4-10 tiles per side
/// and every H/B/L cap vector, with skewed popularity so queries recur.
[[nodiscard]] std::vector<greencap::core::ExperimentConfig> advisor_stream(std::uint64_t seed);

/// The key core::CalibrationCache files a run's calibration record under.
[[nodiscard]] std::string calibration_key(const greencap::core::ExperimentConfig& config);

}  // namespace perfbench
