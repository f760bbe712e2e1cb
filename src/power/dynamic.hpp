// Online GPU power-cap controller — the "dynamic power capping and its
// interaction with scheduling decisions" the paper lists as future work,
// in the spirit of the DEPO tool it cites ([24], [25]).
//
// The controller wakes up periodically on the virtual clock, measures the
// node's energy efficiency over the elapsed window (retired flops divided
// by consumed joules, both read from the same counters the measurement
// methodology uses) and hill-climbs a uniform cap fraction applied to all
// GPUs: keep moving while efficiency improves, reverse and halve the step
// when it degrades. It converges to the neighbourhood of the offline
// P_best without any prior sweep, and optionally recalibrates the
// runtime's performance models after each adjustment so the scheduler
// tracks the changing device speeds.
#pragma once

#include <optional>
#include <vector>

#include "hw/platform.hpp"
#include "rt/calibration.hpp"
#include "rt/runtime.hpp"
#include "sim/simulator.hpp"

namespace greencap::power {

struct DynamicCapOptions {
  /// Controller wake-up period (virtual time).
  sim::SimTime period = sim::SimTime::millis(500);
  /// Initial step, as a fraction of each GPU's TDP.
  double initial_step = 0.10;
  /// The step stops halving here.
  double min_step = 0.01;
  /// Starting cap fraction (1.0 = TDP).
  double initial_fraction = 1.0;
  /// Recalibrate the runtime's performance models after every adjustment
  /// (the paper's protocol, applied online).
  bool recalibrate = true;
  /// kUniform moves one shared cap fraction for all GPUs (DEPO-style);
  /// kPerGpu runs an independent hill-climber per device, discovering
  /// *unbalanced* configurations online when the workload is asymmetric.
  enum class Mode { kUniform, kPerGpu };
  Mode mode = Mode::kUniform;
};

class DynamicCapController {
 public:
  /// `calibrator` may be null when options.recalibrate is false.
  DynamicCapController(rt::Runtime& runtime, rt::Calibrator* calibrator,
                       DynamicCapOptions options = {});

  /// Arms the periodic controller. Call before Runtime::wait_all(); the
  /// controller disarms itself once every submitted task has retired.
  void start();

  [[nodiscard]] double current_fraction() const { return fraction_; }
  /// Per-GPU fraction (kPerGpu mode); equals current_fraction() in
  /// kUniform mode.
  [[nodiscard]] double gpu_fraction(std::size_t gpu) const;
  [[nodiscard]] int adjustments() const { return adjustments_; }
  /// Efficiency (Gflop/s/W) observed in the last completed window.
  [[nodiscard]] std::optional<double> last_window_efficiency() const { return last_eff_; }

 private:
  struct GpuSearch {
    double fraction = 1.0;
    double step = 0.1;
    double direction = -1.0;
    std::optional<double> last_eff;
    double last_flops = 0.0;
    double last_joules = 0.0;
  };

  void tick();
  void tick_uniform();
  void tick_per_gpu();
  void apply_fraction(double fraction);
  /// Flops retired by the CUDA worker driving GPU `g` so far.
  [[nodiscard]] double gpu_flops(std::size_t g) const;

  rt::Runtime& runtime_;
  rt::Calibrator* calibrator_;
  DynamicCapOptions options_;

  double fraction_;
  double step_;
  double direction_ = -1.0;  // start by lowering caps: TDP is never optimal
  std::optional<double> last_eff_;
  double last_flops_ = 0.0;
  double last_joules_ = 0.0;
  int adjustments_ = 0;
  std::vector<GpuSearch> per_gpu_;
};

}  // namespace greencap::power
