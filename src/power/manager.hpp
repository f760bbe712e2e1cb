// PowerManager: applies H/B/L configurations to a platform through the
// NVML and RAPL facades, exactly as the paper's scripts do on the real
// machines (nvidia-smi -pl / RAPL powercap, between runs, with the
// performance models recalibrated afterwards).
//
// Cap writes are treated as fallible, the way datacenter-scale capping
// deployments must: apply() retries transient NVML errors with bounded
// exponential backoff (in virtual time), verifies every write by reading
// the limit back, and keeps multi-GPU configs atomic — either every GPU
// ends up at its requested level, or the config is rolled back and the
// failure reported. With degradation enabled, a GPU whose cap cannot be
// written falls back to its default limit (B/L -> H) instead, and the
// substitution is recorded in a fault::DegradationReport. An optional
// reconciliation loop re-reads the limits at a fixed virtual period and
// re-asserts them when they have silently drifted (thermal throttling).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "fault/degradation.hpp"
#include "fault/injector.hpp"
#include "hw/kernel_work.hpp"
#include "hw/platform.hpp"
#include "nvml/nvml.hpp"
#include "obs/metrics.hpp"
#include "power/config.hpp"
#include "power/sweep.hpp"
#include "rapl/rapl.hpp"
#include "sim/log.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace greencap::ckpt {
class Reader;
class Writer;
}

namespace greencap::power {

/// Knobs for the cap-write resilience machinery. Defaults keep the
/// fault-free path byte-identical to the naive write-once behaviour.
struct PowerResilience {
  /// Additional attempts after the first failed write (0 = no retry).
  int max_retries = 3;
  /// Delay before the first retry; doubles on each subsequent one. The
  /// wait happens in *virtual* time so backoff sequencing is testable.
  double backoff_initial_ms = 1.0;
  /// Read the limit back after each write and treat a mismatch as a
  /// failed attempt (real NVML can accept a write the hardware ignores).
  bool verify_after_write = true;
  /// On permanent failure, fall back to the GPU's default limit (B/L->H)
  /// and record it, instead of rolling back the whole config and throwing.
  bool allow_degradation = false;
};

class PowerManager {
 public:
  PowerManager(hw::Platform& platform, sim::Simulator& sim);

  /// Resolves the B level for every GPU by running the section-II sweep
  /// for the given precision and kernel size. Must be called before
  /// applying any configuration containing B.
  void resolve_best_caps(hw::Precision precision, int matrix_dim);

  /// Overrides the B level of one GPU (e.g. to use Table II's values).
  void set_best_cap_w(std::size_t gpu, double watts);

  /// Watts a level resolves to on a given GPU.
  [[nodiscard]] double watts_for(std::size_t gpu, Level level) const;

  /// Applies a GPU configuration (one level per GPU) through NVML, with
  /// retry/verify per the configured PowerResilience. All-or-nothing
  /// unless degradation is enabled: on a permanent per-GPU failure the
  /// already-written GPUs are restored to their previous limits and
  /// std::runtime_error is thrown. Throws std::invalid_argument if the
  /// config size mismatches the GPU count or B caps are unresolved.
  void apply(const GpuConfig& config);

  /// Caps one CPU package to `fraction` of its TDP through RAPL (the
  /// paper's section V-C experiment uses 48 % on the second package).
  void cap_cpu(std::size_t package, double fraction_of_tdp);

  /// Restores all GPUs and CPUs to their default limits. Best-effort:
  /// failures are counted ("power.reset_failures") instead of thrown.
  void reset();

  [[nodiscard]] std::size_t gpu_count() const { return nvml_.device_count(); }

  // -- resilience ----------------------------------------------------------

  void set_resilience(const PowerResilience& r) { resilience_ = r; }
  [[nodiscard]] const PowerResilience& resilience() const { return resilience_; }

  /// Sink for degradation events (not owned, may be null).
  void set_degradation(fault::DegradationReport* report) { degradation_ = report; }

  /// Routes this manager's NVML session through `injector` (cap-write
  /// failures, dropout) and subscribes to its drift faults so drifted
  /// device limits change silently — exactly what reconciliation exists
  /// to catch.
  void attach_faults(fault::FaultInjector& injector);

  /// Starts the verify/re-assert loop: every `period` of virtual time,
  /// read each managed GPU's limit and rewrite it if it no longer matches
  /// the last applied value. `on_reassert` (optional) fires after a
  /// successful re-assert — the experiment driver uses it to invalidate
  /// perf-model history for the affected GPU. The loop keeps scheduling
  /// itself; call stop_reconciliation() (e.g. from a runtime drain hook)
  /// or the simulator never goes idle.
  void start_reconciliation(sim::SimTime period,
                            std::function<void(std::size_t gpu)> on_reassert = {});
  void stop_reconciliation();
  [[nodiscard]] bool reconciling() const { return reconcile_active_; }

  // -- checkpoint support --------------------------------------------------

  /// Appends the complete mutable manager state apart from the pending
  /// reconcile event, which is checkpointed with the global event set and
  /// re-created via rearm_reconcile_at().
  void save(ckpt::Writer& w) const;

  /// Reads what save() wrote, without scheduling anything. `on_reassert`
  /// re-attaches the caller's reconciliation callback (closures cannot be
  /// checkpointed). Throws ckpt::CheckpointError if the checkpoint was
  /// taken on a platform with a different GPU count.
  void load(ckpt::Reader& r, std::function<void(std::size_t gpu)> on_reassert = {});

  /// Re-creates the pending reconcile event at absolute time `when`
  /// (checkpoint restore; load() must have run first).
  void rearm_reconcile_at(sim::SimTime when);

  /// Pending-reconcile handle for checkpoint capture.
  [[nodiscard]] sim::EventId reconcile_event() const { return reconcile_event_; }
  [[nodiscard]] sim::SimTime reconcile_period() const { return reconcile_period_; }

  // -- observability (optional, not owned) ---------------------------------

  /// Counts cap changes into `metrics` ("power.gpu_cap_changes",
  /// "power.cpu_cap_changes") and mirrors the applied caps as gauges.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Adds a "power_cap gpuN <W>W" / "power_cap cpuN <W>W" instant marker
  /// to `trace` for every applied limit (rendered in the Perfetto export).
  void set_trace(sim::Trace* trace, const sim::Simulator* sim) {
    trace_ = trace;
    trace_sim_ = sim;
  }

  /// Narrates retries, degradations, and reconciliation re-asserts to the
  /// run's logger (kDebug/kInfo; not owned, may be null).
  void set_logger(sim::Logger* log) { log_ = log; }

 private:
  /// The layout save() writes and load() reads.
  template <typename C, typename Self>
  static void io(C& c, Self& m);
  void note_cap_change(const std::string& device, double watts);
  [[nodiscard]] nvml::Device& device(std::size_t gpu);
  /// Blocks (in virtual time) for `delay`; schedules a no-op so the
  /// simulator's clock actually advances on an otherwise idle queue.
  void wait_virtual(sim::SimTime delay);
  /// One resilient cap write: retry loop + optional verify. Returns
  /// kSuccess or the last error.
  nvml::Result try_set_gpu(std::size_t gpu, std::uint32_t mw);
  void reconcile_once();
  void record_degradation(std::string detail, std::string from, std::string to,
                          std::string reason);

  hw::Platform& platform_;
  sim::Simulator& sim_;
  nvml::Context nvml_;
  rapl::Session rapl_;
  std::vector<std::optional<double>> best_cap_w_;
  PowerResilience resilience_;
  /// Last successfully applied limit per GPU, in mW; 0 = unmanaged (never
  /// applied), skipped by reconciliation.
  std::vector<std::uint32_t> target_mw_;
  fault::FaultInjector* faults_ = nullptr;
  fault::DegradationReport* degradation_ = nullptr;
  bool reconcile_active_ = false;
  sim::EventId reconcile_event_;
  sim::SimTime reconcile_period_;
  std::function<void(std::size_t)> on_reassert_;
  obs::MetricsRegistry* metrics_ = nullptr;
  sim::Trace* trace_ = nullptr;
  const sim::Simulator* trace_sim_ = nullptr;
  sim::Logger* log_ = nullptr;
};

}  // namespace greencap::power
