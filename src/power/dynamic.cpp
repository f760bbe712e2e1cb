#include "power/dynamic.hpp"

#include <algorithm>
#include <cstdio>

namespace greencap::power {

namespace {

/// Mid-run cap changes are the events the trace markers exist for: the
/// Perfetto export renders them as global instants over the worker rows.
void mark_cap_change(rt::Runtime& runtime, std::size_t gpu, double watts) {
  sim::Trace& trace = runtime.trace();
  if (!trace.enabled()) {
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "power_cap gpu%zu %.0fW", gpu, watts);
  trace.add_marker(buf, runtime.simulator().now());
}

}  // namespace

DynamicCapController::DynamicCapController(rt::Runtime& runtime, rt::Calibrator* calibrator,
                                           DynamicCapOptions options)
    : runtime_{runtime},
      calibrator_{calibrator},
      options_{options},
      fraction_{options.initial_fraction},
      step_{options.initial_step} {
  per_gpu_.resize(runtime_.platform().gpu_count());
  for (GpuSearch& state : per_gpu_) {
    state.fraction = options.initial_fraction;
    state.step = options.initial_step;
  }
}

double DynamicCapController::gpu_fraction(std::size_t gpu) const {
  return options_.mode == DynamicCapOptions::Mode::kPerGpu ? per_gpu_.at(gpu).fraction
                                                           : fraction_;
}

double DynamicCapController::gpu_flops(std::size_t g) const {
  for (std::size_t w = 0; w < runtime_.worker_count(); ++w) {
    const rt::Worker& worker = runtime_.worker(w);
    if (worker.gpu() != nullptr && static_cast<std::size_t>(worker.gpu()->index()) == g) {
      return worker.flops_done;
    }
  }
  return 0.0;
}

void DynamicCapController::apply_fraction(double fraction) {
  hw::Platform& platform = runtime_.platform();
  const sim::SimTime now = runtime_.simulator().now();
  for (std::size_t g = 0; g < platform.gpu_count(); ++g) {
    hw::GpuModel& gpu = platform.gpu(g);
    gpu.set_power_cap(fraction * gpu.spec().tdp_w, now);  // model clamps to range
    mark_cap_change(runtime_, g, gpu.power_cap());
  }
  if (options_.recalibrate && calibrator_ != nullptr) {
    calibrator_->recalibrate_all();
  }
  ++adjustments_;
}

void DynamicCapController::start() {
  // Baseline counters for the first window.
  const sim::SimTime now = runtime_.simulator().now();
  last_flops_ = runtime_.flops_completed();
  last_joules_ = runtime_.platform().read_energy(now).total();
  const hw::EnergyReading reading = runtime_.platform().read_energy(now);
  for (std::size_t g = 0; g < per_gpu_.size(); ++g) {
    per_gpu_[g].last_flops = gpu_flops(g);
    per_gpu_[g].last_joules = reading.gpu_joules[g];
  }
  runtime_.simulator().after(options_.period, [this] { tick(); });
}

void DynamicCapController::tick() {
  if (runtime_.all_tasks_done()) {
    return;  // disarm: nothing left to control
  }
  if (options_.mode == DynamicCapOptions::Mode::kPerGpu) {
    tick_per_gpu();
  } else {
    tick_uniform();
  }
  runtime_.simulator().after(options_.period, [this] { tick(); });
}

void DynamicCapController::tick_uniform() {
  const double flops = runtime_.flops_completed();
  const double joules = runtime_.platform().read_energy(runtime_.simulator().now()).total();
  const double d_flops = flops - last_flops_;
  const double d_joules = joules - last_joules_;
  last_flops_ = flops;
  last_joules_ = joules;

  if (d_flops > 0.0 && d_joules > 0.0) {
    const double eff = d_flops / d_joules / 1e9;  // Gflop/s/W
    if (last_eff_ && eff < *last_eff_) {
      // Efficiency degraded: reverse and refine.
      direction_ = -direction_;
      step_ = std::max(options_.min_step, step_ * 0.5);
    }
    last_eff_ = eff;
    fraction_ = std::clamp(fraction_ + direction_ * step_, 0.0, 1.0);
    apply_fraction(fraction_);
  }
}

void DynamicCapController::tick_per_gpu() {
  hw::Platform& platform = runtime_.platform();
  const sim::SimTime now = runtime_.simulator().now();
  const hw::EnergyReading reading = platform.read_energy(now);
  bool any_moved = false;
  for (std::size_t g = 0; g < per_gpu_.size(); ++g) {
    GpuSearch& state = per_gpu_[g];
    const double flops = gpu_flops(g);
    const double joules = reading.gpu_joules[g];
    const double d_flops = flops - state.last_flops;
    const double d_joules = joules - state.last_joules;
    state.last_flops = flops;
    state.last_joules = joules;
    if (d_flops <= 0.0 || d_joules <= 0.0) {
      continue;  // idle GPU this window: leave its cap alone
    }
    const double eff = d_flops / d_joules / 1e9;
    if (state.last_eff && eff < *state.last_eff) {
      state.direction = -state.direction;
      state.step = std::max(options_.min_step, state.step * 0.5);
    }
    state.last_eff = eff;
    state.fraction = std::clamp(state.fraction + state.direction * state.step, 0.0, 1.0);
    hw::GpuModel& gpu = platform.gpu(g);
    gpu.set_power_cap(state.fraction * gpu.spec().tdp_w, now);
    mark_cap_change(runtime_, g, gpu.power_cap());
    any_moved = true;
  }
  if (any_moved) {
    if (options_.recalibrate && calibrator_ != nullptr) {
      calibrator_->recalibrate_all();
    }
    ++adjustments_;
  }
}

}  // namespace greencap::power
