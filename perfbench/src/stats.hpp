// Order statistics for the benchmark's timing samples.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Linearly interpolated percentile (`p` in [0, 100]) of `values`, the
/// "inclusive" definition numpy and Python's statistics module default to.
/// Empty input yields 0.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] double median(std::vector<double> values);

/// A tail percentile together with the evidence behind it.
struct Tail {
  double percentile = 0.0;  ///< e.g. 99.9
  double value = 0.0;
  std::size_t samples = 0;
  double beyond = 0.0;  ///< samples * (1 - percentile / 100)
};

/// Tail percentiles the benchmark may report, lowest first. The ladder is
/// coarse on purpose: the reported percentile only changes when the sample
/// count changes by an order of magnitude, so run-to-run sample counts do
/// not make the metric jump between levels.
inline constexpr double kTailLadder[] = {50.0, 90.0, 99.0, 99.9};

/// Fewest samples beyond the reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Samples needed before any tail can be reported (the p50 rung).
inline constexpr std::size_t kMinTailSamples = 2 * kMinBeyond;

/// The highest ladder percentile with at least kMinBeyond samples beyond
/// it; nullopt with fewer than kMinTailSamples samples.
[[nodiscard]] std::optional<Tail> tail_percentile(const std::vector<double>& values);

}  // namespace perfbench
