#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

std::optional<Tail> tail_percentile(const std::vector<double>& values) {
  const std::size_t n = values.size();
  std::optional<Tail> best;
  for (const double p : kTailLadder) {
    // n * (1 - p/100) >= kMinBeyond, evaluated in integer tenths of a
    // percent so 99.9 does not round its way past the threshold.
    const auto tenths_beyond = static_cast<std::size_t>(std::lround((100.0 - p) * 10.0));
    if (n * tenths_beyond < kMinBeyond * 1000) {
      break;
    }
    Tail t;
    t.percentile = p;
    t.samples = n;
    t.beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    best = t;
  }
  if (best) {
    best->value = percentile(values, best->percentile);
  }
  return best;
}

}  // namespace perfbench
