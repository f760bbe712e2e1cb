// Experiment driver: the paper's measurement methodology as a library.
//
// One Experiment = {platform, operation, precision, N, Nt, GPU power
// configuration, optional CPU cap, scheduler}. Running it performs the
// full protocol of section IV-C:
//
//   1. build the platform, resolve P_best from the GEMM kernel sweep at
//      the operation's tile size,
//   2. apply the power configuration through NVML/RAPL,
//   3. recalibrate the runtime's performance models (so the scheduler is
//      implicitly informed of the new device speeds),
//   4. read all energy counters, execute the operation, read them again,
//   5. report performance (Gflop/s), per-device energy (J) and energy
//      efficiency (Gflop/s/W).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/degradation.hpp"
#include "fault/injector.hpp"
#include "hw/kernel_work.hpp"
#include "hw/platform.hpp"
#include "obs/decision_log.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "power/config.hpp"
#include "prof/capture.hpp"
#include "rt/runtime.hpp"
#include "sim/trace.hpp"

namespace greencap::core {

/// The paper evaluates GEMM and POTRF; GETRF (LU), GEQRF (QR) and GELQF
/// (LQ) are this library's extensions, completing the four Chameleon
/// routine families the paper's section III-C names.
enum class Operation : std::uint8_t { kGemm, kPotrf, kGetrf, kGeqrf, kGelqf };

[[nodiscard]] const char* to_string(Operation op);

struct CpuCap {
  std::size_t package = 0;
  double fraction_of_tdp = 1.0;
};

/// Which observability features to enable for a run. Everything defaults
/// to off: sweeps run thousands of experiments and must stay lean.
struct ObservabilityOptions {
  /// Record execution/transfer spans and cap-change markers.
  bool trace = false;
  /// Register runtime/power metrics (counters, histograms).
  bool metrics = false;
  /// Log every scheduling decision with model expectations vs. reality.
  bool decision_log = false;
  /// Virtual-time telemetry sampling period; 0 disables the sampler.
  double telemetry_period_ms = 0.0;
  /// Capture the realized task graph + per-task attributed power for the
  /// energy-attribution profiler (prof::analyze).
  bool profile = false;

  [[nodiscard]] bool any() const {
    return trace || metrics || decision_log || profile || telemetry_period_ms > 0.0;
  }
};

/// Observability artifacts of one run, detached from the (destroyed)
/// platform and runtime so they can be exported after run_experiment().
struct ObservabilityData {
  sim::Trace trace;
  obs::MetricsRegistry metrics;
  obs::TelemetrySeries telemetry;
  obs::DecisionLog decisions;
  std::vector<std::string> worker_names;  ///< trace-export row labels
  /// Profiler input (empty unless ObservabilityOptions::profile).
  prof::RunCapture capture;
};

/// Fault-injection and resilience knobs (docs/ROBUSTNESS.md). Everything
/// defaults to off; with `faults` empty and `reconcile_ms` zero a run is
/// byte-identical to one without this struct.
struct ResilienceConfig {
  /// Fault plan: inline `kind@gpuN:key=value,...` spec (';'-separated
  /// events) or `@path` to a JSON plan file. Empty = no injection.
  std::string faults;
  /// Seed for the injector's private RNG stream. 0 derives one from the
  /// experiment seed, so fault dice never perturb the runtime's stream.
  std::uint64_t fault_seed = 0;
  /// Cap-reconciliation period (verify-and-re-assert loop); 0 disables it.
  double reconcile_ms = 0.0;
  /// On an unrecoverable cap write, fall back to H on that GPU instead of
  /// rolling the whole configuration back and failing the run.
  bool degrade = false;
  /// Bounded retry budget for NVML cap writes (on top of the first try).
  int max_cap_retries = 3;

  [[nodiscard]] bool any() const { return !faults.empty() || reconcile_ms > 0.0; }
};

struct ExperimentConfig {
  std::string platform;  ///< preset name, e.g. "32-AMD-4-A100"
  Operation op = Operation::kGemm;
  hw::Precision precision = hw::Precision::kDouble;
  std::int64_t n = 0;
  int nb = 0;
  /// GPU power configuration; empty = all H (the default).
  power::GpuConfig gpu_config;
  /// Optional RAPL cap on one CPU package (paper section V-C).
  std::optional<CpuCap> cpu_cap;
  std::string scheduler = "dmdas";
  std::uint64_t seed = 42;
  /// Recalibrate performance models after applying the caps (the paper's
  /// protocol).
  bool recalibrate = true;
  /// Maladaptation ablation: calibrate the models at DEFAULT power, then
  /// apply the caps WITHOUT recalibrating — the scheduler keeps believing
  /// every GPU still runs at full speed (the counterfactual of the paper's
  /// section III-B). Overrides `recalibrate`.
  bool stale_models = false;
  /// Run kernels numerically (small problems only).
  bool execute_kernels = false;
  /// Optional tracing/metrics/telemetry capture (all off by default).
  ObservabilityOptions obs;
  /// Optional fault injection + resilience knobs (all off by default).
  ResilienceConfig resilience;

  [[nodiscard]] std::string describe() const;
};

struct ExperimentResult {
  ExperimentConfig config;
  double time_s = 0.0;
  double gflops = 0.0;
  double total_energy_j = 0.0;
  double efficiency_gflops_per_w = 0.0;
  hw::EnergyReading energy;  ///< per-device breakdown
  rt::RuntimeStats stats;
  /// Tasks executed by CPU vs GPU workers (Fig. 5's shift under capping).
  std::uint64_t cpu_tasks = 0;
  std::uint64_t gpu_tasks = 0;
  /// Populated iff config.obs.any(); shared so results stay copyable.
  std::shared_ptr<ObservabilityData> observability;
  /// Per-GPU service degradations (cap fallback to H, worker quarantine);
  /// empty on a clean run.
  fault::DegradationReport degradation;
  /// Tally of faults the injector actually fired (zeros without --faults).
  fault::FaultInjector::Counts fault_counts;
  /// Energy-counter resets reconstructed by the monotonic tracker.
  int energy_counter_resets = 0;

  /// Percent performance change vs. a baseline (positive = speedup).
  [[nodiscard]] double perf_delta_pct(const ExperimentResult& baseline) const;
  /// Percent energy change vs. a baseline (positive = savings).
  [[nodiscard]] double energy_saving_pct(const ExperimentResult& baseline) const;
  /// Percent efficiency change vs. a baseline (positive = improvement).
  [[nodiscard]] double efficiency_gain_pct(const ExperimentResult& baseline) const;
};

class CalibrationCache;  // core/calibration_cache.hpp

/// Run-scoped services injected by whoever drives the run (the campaign
/// engine). A default-constructed RunServices is a standalone run.
struct RunServices {
  /// Shared warmup cache (not owned; null = compute everything locally).
  CalibrationCache* calibration = nullptr;
};

/// Runs one experiment from scratch (fresh platform, runtime and models —
/// runs are completely independent, like the paper's separate jobs).
/// Injected services give byte-identical results by construction.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config,
                                              const RunServices& services = {});

/// Total useful flops of the operation at size n.
[[nodiscard]] double operation_flops(Operation op, double n);

}  // namespace greencap::core
