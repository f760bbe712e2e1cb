#include "stream.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/paper_params.hpp"
#include "hw/presets.hpp"
#include "power/config.hpp"

namespace perfbench {

namespace core = greencap::core;
namespace hw = greencap::hw;
namespace power = greencap::power;

namespace {

constexpr std::size_t kQueries = 2000;
/// Query templates the stream draws from (duplicates allowed).
constexpr std::size_t kCatalog = 600;
/// Zipf exponent of template popularity: rank r has weight 1/(r+1)^s.
constexpr double kZipfS = 1.1;

}  // namespace

std::vector<core::ExperimentConfig> advisor_stream(std::uint64_t seed) {
  static const char* const kPlatforms[] = {"24-Intel-2-V100", "64-AMD-2-A100", "32-AMD-4-A100"};
  static const core::Operation kOps[] = {core::Operation::kGemm, core::Operation::kPotrf,
                                         core::Operation::kGetrf, core::Operation::kGeqrf};
  greencap::sim::Xoshiro256 rng{seed ^ 0xad5e5eedULL};

  std::vector<core::ExperimentConfig> catalog;
  catalog.reserve(kCatalog);
  for (std::size_t c = 0; c < kCatalog; ++c) {
    core::ExperimentConfig cfg;
    cfg.platform = kPlatforms[rng.below(3)];
    cfg.op = kOps[rng.below(4)];
    cfg.precision = rng.below(2) == 0 ? hw::Precision::kDouble : hw::Precision::kSingle;
    const auto tiles = static_cast<std::int64_t>(4 + rng.below(7));
    // Table II's tile size for the platform: the GEMM row for GEMM, the
    // POTRF row for the factorizations.
    const core::Operation row_op =
        cfg.op == core::Operation::kGemm ? core::Operation::kGemm : core::Operation::kPotrf;
    cfg.nb = core::paper::table_ii_row(cfg.platform, row_op, cfg.precision).nb;
    cfg.n = tiles * cfg.nb;
    const std::size_t gpus = hw::presets::platform_by_name(cfg.platform).gpus.size();
    const std::vector<power::GpuConfig> caps = power::all_configs(gpus);
    cfg.gpu_config = caps[static_cast<std::size_t>(rng.below(caps.size()))];
    catalog.push_back(std::move(cfg));
  }

  std::vector<double> cumulative(catalog.size());
  double total = 0.0;
  for (std::size_t r = 0; r < catalog.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cumulative[r] = total;
  }
  std::vector<core::ExperimentConfig> stream;
  stream.reserve(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    const double u = rng.uniform() * total;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cumulative.begin()), catalog.size() - 1);
    stream.push_back(catalog[rank]);
  }
  return stream;
}

std::string calibration_key(const core::ExperimentConfig& config) {
  // Same fields and format as the library's key (core/experiment.cpp).
  std::ostringstream oss;
  oss << "cal|" << config.platform << '|' << hw::to_string(config.precision) << '|' << config.nb
      << '|' << core::to_string(config.op) << '|'
      << (config.gpu_config.size() ? config.gpu_config.to_string() : "H*");
  if (config.cpu_cap) {
    oss << "|cpu" << config.cpu_cap->package << '@' << config.cpu_cap->fraction_of_tdp;
  }
  oss << "|stale=" << (config.stale_models ? 1 : 0);
  return oss.str();
}

}  // namespace perfbench
