// greencap — command-line experiment runner.
//
// Runs one capping experiment end-to-end and prints the metrics; the
// scriptable entry point for users who want the paper's protocol without
// writing C++.
//
//   greencap --platform 32-AMD-4-A100 --op gemm --precision double
//            --n 74880 --nb 5760 --config HHBB [--cpu-cap 1:0.48]
//            [--scheduler dmdas] [--baseline] [--stale-models]
//            [--trace-json FILE] [--metrics-json FILE]
//            [--telemetry-period-ms N] [--telemetry-csv FILE]
//            [--decisions-json FILE] [--model-report]
//
// With --baseline the default (all-H) run executes too and the deltas are
// reported, like the paper's figures. The observability flags capture the
// run as a Perfetto-loadable trace, a metrics snapshot, a power/occupancy
// time-series, or a scheduler decision log (all =VALUE or space-separated).
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign_flags.hpp"
#include "core/paper_params.hpp"
#include "hw/presets.hpp"

using namespace greencap;

namespace {

[[noreturn]] void usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [options]\n"
      "  --platform NAME     24-Intel-2-V100 | 64-AMD-2-A100 | 32-AMD-4-A100\n"
      "  --op NAME           gemm | potrf | getrf | geqrf | gelqf (default gemm)\n"
      "  --precision P       single | double        (default double)\n"
      "  --n N               matrix order           (default: paper's Table II)\n"
      "  --nb NB             tile order             (default: paper's Table II)\n"
      "  --config CFG        H/B/L letters, one per GPU (default all H)\n"
      "  --cpu-cap PKG:FRAC  RAPL-cap package PKG to FRAC of TDP\n"
      "  --scheduler S       eager|random|ws|dm|dmda|dmdas|dmdae (default dmdas)\n"
      "  --baseline          also run all-H and print deltas\n"
      "  --stale-models      maladaptation ablation (no recalibration)\n"
      "  --seed N            RNG seed (default 42)\n"
      "  --jobs N            worker threads for multi-run campaigns\n"
      "                      (default 1 = serial; 0 = hardware concurrency)\n"
      "%s"
      "  --telemetry-json FILE    telemetry series as JSON\n"
      "  --telemetry-csv FILE     telemetry series as CSV\n"
      "  --decisions-json FILE    scheduler decision log\n"
      "  --model-report           print perf-model accuracy per codelet/arch\n"
      "%s"
      "  --degradation-json FILE  degradation report export\n"
      "%s",
      argv0, core::kCaptureHelp, core::kResilienceHelp, core::kCheckpointHelp);
  std::exit(code);
}

/// FlagParser callback body for a flag whose value must be a positive
/// integer that fits `Int`.
template <typename Int>
std::string positive(const std::string& value, Int* out) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno == ERANGE || parsed <= 0 ||
      parsed > std::numeric_limits<Int>::max()) {
    return "expects a positive integer, got '" + value + "'";
  }
  *out = static_cast<Int>(parsed);
  return {};
}

void print_result(const char* title, const core::ExperimentResult& r) {
  std::printf("%s  [%s]\n", title, r.config.describe().c_str());
  std::printf("  time        : %.3f s\n", r.time_s);
  std::printf("  performance : %.1f Gflop/s\n", r.gflops);
  std::printf("  energy      : %.1f J (GPU %.1f, CPU %.1f)\n", r.total_energy_j,
              r.energy.gpu_total(), r.energy.cpu_total());
  std::printf("  efficiency  : %.2f Gflop/s/W\n", r.efficiency_gflops_per_w);
  std::printf("  tasks       : %llu GPU / %llu CPU\n",
              static_cast<unsigned long long>(r.gpu_tasks),
              static_cast<unsigned long long>(r.cpu_tasks));
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  bool baseline = false;
  std::int64_t n_value = 0;   // 0 = unset: use the paper's Table II default
  int nb_value = 0;           // 0 = unset: use the paper's Table II default
  std::string config_text;
  std::string telemetry_json, telemetry_csv, decisions_json, degradation_json;
  bool model_report = false;
  core::CampaignFlags flags;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(argv[0], 0);
  }

  core::FlagParser parser;
  parser.value("--platform", "NAME", [&cfg](const std::string& name) -> std::string {
    try {
      (void)hw::presets::platform_by_name(name);
    } catch (const std::invalid_argument&) {
      return "expects 24-Intel-2-V100|64-AMD-2-A100|32-AMD-4-A100, got '" + name + "'";
    }
    cfg.platform = name;
    return {};
  });
  parser.value("--op", "NAME", [&cfg](const std::string& op) -> std::string {
    if (op == "gemm") cfg.op = core::Operation::kGemm;
    else if (op == "potrf") cfg.op = core::Operation::kPotrf;
    else if (op == "getrf") cfg.op = core::Operation::kGetrf;
    else if (op == "geqrf") cfg.op = core::Operation::kGeqrf;
    else if (op == "gelqf") cfg.op = core::Operation::kGelqf;
    else return "expects gemm|potrf|getrf|geqrf|gelqf, got '" + op + "'";
    return {};
  });
  parser.value("--precision", "P", [&cfg](const std::string& p) -> std::string {
    if (p == "single") cfg.precision = hw::Precision::kSingle;
    else if (p == "double") cfg.precision = hw::Precision::kDouble;
    else return "expects single|double, got '" + p + "'";
    return {};
  });
  parser.value("--n", "N", [&n_value](const std::string& v) { return positive(v, &n_value); });
  parser.value("--nb", "NB", [&nb_value](const std::string& v) { return positive(v, &nb_value); });
  parser.value("--config", "CFG", [&cfg, &config_text](const std::string& text) -> std::string {
    try {
      cfg.gpu_config = power::GpuConfig::parse(text);
    } catch (const std::invalid_argument&) {
      return "expects H/B/L letters, one per GPU, got '" + text + "'";
    }
    config_text = text;
    return {};
  });
  parser.value("--cpu-cap", "PKG:FRAC", [&cfg](const std::string& spec) -> std::string {
    const auto colon = spec.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
      return "expects PKG:FRAC, got '" + spec + "'";
    }
    char* end = nullptr;
    const long pkg = std::strtol(spec.c_str(), &end, 10);
    if (end != spec.c_str() + colon || pkg < 0) {
      return "package index must be a non-negative integer, got '" + spec + "'";
    }
    const double frac = std::strtod(spec.c_str() + colon + 1, &end);
    if (*end != '\0' || !(frac > 0.0) || frac > 1.0) {
      return "TDP fraction must be in (0, 1], got '" + spec + "'";
    }
    cfg.cpu_cap = core::CpuCap{static_cast<std::size_t>(pkg), frac};
    return {};
  });
  parser.str("--scheduler", &cfg.scheduler);
  parser.flag("--baseline", &baseline);
  parser.flag("--stale-models", &cfg.stale_models);
  parser.u64("--seed", &cfg.seed);
  flags.add_all(parser);
  parser.str("--telemetry-json", &telemetry_json);
  parser.str("--telemetry-csv", &telemetry_csv);
  parser.str("--decisions-json", &decisions_json);
  parser.flag("--model-report", &model_report);
  parser.str("--degradation-json", &degradation_json);
  if (const std::string err = flags.parse(parser, argc, argv); !err.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
    return 2;
  }

  // Default N/Nt from the paper's Table II for the chosen platform/op;
  // the extension operations (LU/QR/LQ) are not in Table II and default to
  // the extension-study geometry (40x40 tiles of 2880).
  try {
    const auto row = core::paper::table_ii_row(cfg.platform, cfg.op, cfg.precision);
    cfg.n = n_value > 0 ? n_value : row.n;
    cfg.nb = nb_value > 0 ? nb_value : row.nb;
  } catch (const std::exception&) {
    if (cfg.op == core::Operation::kGetrf || cfg.op == core::Operation::kGeqrf ||
        cfg.op == core::Operation::kGelqf) {
      cfg.nb = nb_value > 0 ? nb_value : 2880;
      cfg.n = n_value > 0 ? n_value : static_cast<std::int64_t>(cfg.nb) * 40;
    } else if (n_value > 0 && nb_value > 0) {
      cfg.n = n_value;
      cfg.nb = nb_value;
    } else {
      std::fprintf(stderr, "no Table II defaults for this platform; pass --n and --nb\n");
      return 2;
    }
  }

  const std::size_t gpus = hw::presets::platform_by_name(cfg.platform).gpus.size();
  if (config_text.empty()) {
    cfg.gpu_config = power::GpuConfig::uniform(gpus, power::Level::kHigh);
  } else if (cfg.gpu_config.size() != gpus) {
    std::fprintf(stderr, "%s: flag '--config' expects one H/B/L letter per GPU (%zu on %s), got '%s'\n",
                 argv[0], gpus, cfg.platform.c_str(), config_text.c_str());
    return 2;
  }

  cfg.resilience = flags.resilience;
  cfg.obs = flags.observability(!telemetry_json.empty() || !telemetry_csv.empty());
  cfg.obs.decision_log = !decisions_json.empty() || model_report;

  // With --baseline the all-H run follows the experiment; like a bench
  // campaign, only the first run captures observability.
  std::vector<core::ExperimentConfig> configs{cfg};
  if (baseline && !cfg.gpu_config.is_default()) {
    core::ExperimentConfig base_cfg = cfg;
    base_cfg.gpu_config = power::GpuConfig::uniform(gpus, power::Level::kHigh);
    base_cfg.cpu_cap.reset();
    base_cfg.obs = {};
    configs.push_back(std::move(base_cfg));
  }
  if (const std::string err = core::check_configs(configs); !err.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
    return 2;
  }

  const core::WroteHook wrote = [](const char* what, const std::string& path) {
    std::printf("  wrote %-11s: %s\n", what, path.c_str());
  };
  auto write = [&wrote](const std::string& path, const char* what, auto&& writer) {
    core::export_artifact(path, what, writer, wrote);
  };

  return core::run_guarded([&] {
    // The hook prints and exports each result in run order, before a
    // checkpoint session commits it.
    core::CampaignDriver driver{flags};
    const core::ExperimentResult* experiment = nullptr;
    (void)driver.run(configs, [&](std::size_t index, core::ExperimentResult& result) {
      if (index == 1) {
        print_result("baseline", result);
        std::printf("deltas vs baseline: perf %+.2f %%, energy saving %+.2f %%, "
                    "efficiency %+.2f %%\n",
                    experiment->perf_delta_pct(result), experiment->energy_saving_pct(result),
                    experiment->efficiency_gain_pct(result));
        return;
      }
      experiment = &result;
      print_result("experiment", result);
      if (cfg.resilience.any()) {
        const auto& fc = result.fault_counts;
        std::printf("  faults      : %llu capfail, %llu drift, %llu energy-reset, "
                    "%llu dropout (%d counter reset(s) reconstructed)\n",
                    static_cast<unsigned long long>(fc.cap_write_failures),
                    static_cast<unsigned long long>(fc.drifts),
                    static_cast<unsigned long long>(fc.energy_resets),
                    static_cast<unsigned long long>(fc.dropouts),
                    result.energy_counter_resets);
        if (!result.degradation.empty()) {
          std::printf("degradations:\n%s", result.degradation.to_string().c_str());
        }
      }
      write(degradation_json, "degradation",
            [&](std::ostream& os) { result.degradation.write_json(os); });
      core::export_capture(result, flags, wrote, [&](const core::ObservabilityData& data) {
        write(telemetry_json, "telemetry",
              [&](std::ostream& os) { data.telemetry.write_json(os); });
        write(telemetry_csv, "telemetry", [&](std::ostream& os) { data.telemetry.write_csv(os); });
        write(decisions_json, "decisions",
              [&](std::ostream& os) { data.decisions.write_json(os); });
        if (model_report) {
          std::printf("perf-model accuracy (expected vs realized exec time):\n");
          data.decisions.print_accuracy(std::cout);
        }
      });
    });
    return 0;
  });
}
