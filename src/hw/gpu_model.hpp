// Analytic power/performance model of an NVML-cappable GPU.
//
// This is the substitute for the physical V100/A100 boards of the paper
// (see DESIGN.md section 2). Per-archetype parameters are calibrated so
// that sweeping the power cap on a large GEMM tile reproduces the paper's
// Table I: the energy-efficiency peak sits at the published %-of-TDP, with
// the published slowdown and efficiency gain at the peak.
//
// Model summary, for a kernel with utilization u and clock ratio r:
//
//   draw(u, r)  = P_idle + u * (P_kernel - P_idle) * phi(r)
//   phi(r)      = r * max(v_floor, r)^2          (PowerCurve)
//   rate(u, r)  = peak_gflops * class_factor * u * r^beta
//
// where beta >= 1 captures the superlinear performance penalty of capping
// (memory clocks throttle together with SM clocks). Under a cap C the
// device runs at the largest r with draw(u, r) <= C.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "hw/energy_meter.hpp"
#include "hw/kernel_work.hpp"
#include "hw/power_curve.hpp"
#include "sim/time.hpp"

namespace greencap::hw {

/// Per-precision performance/power profile of a GPU archetype.
struct GpuPrecisionProfile {
  /// Effective library throughput (Gflop/s) of a saturating GEMM tile at
  /// full clocks — i.e. what cuBLAS actually achieves, not the datasheet.
  double peak_gflops = 0.0;
  /// Package draw (W) of that kernel at full utilization and full clocks.
  double kernel_power_w = 0.0;
  /// Performance exponent beta: rate ~ r^beta under throttling.
  double perf_exponent = 1.0;
  /// Voltage-ratio floor of the throttle curve for this workload.
  double v_floor = 0.8;
};

/// Relative throughput of each kernel family vs. GEMM on this device.
struct GpuKernelFactors {
  double gemm = 1.0;
  double syrk = 0.92;
  double trsm = 0.80;
  double potrf = 0.05;  ///< panel factorization is tiny & latency-bound on GPU
  double getrf = 0.06;  ///< LU panel: same story as potrf
  double qr_panel = 0.05;
  double qr_apply = 0.85;
  double generic = 0.50;

  [[nodiscard]] double factor(KernelClass k) const;
};

/// Immutable description of a GPU model (V100-PCIe, A100-PCIe, A100-SXM4).
struct GpuArchSpec {
  std::string name;
  double tdp_w = 0.0;       ///< default (maximum) power limit, paper's H
  double min_cap_w = 0.0;   ///< lowest settable power limit, paper's L
  double idle_w = 0.0;      ///< static draw when no kernel is resident
  /// Occupancy half-saturation tile order: u(nb) = nb^2 / (nb^2 + nb_half^2).
  double nb_half = 768.0;
  GpuPrecisionProfile single;
  GpuPrecisionProfile fp64;
  GpuKernelFactors kernel_factors;

  [[nodiscard]] const GpuPrecisionProfile& profile(Precision p) const {
    return p == Precision::kSingle ? single : fp64;
  }
};

/// A simulated GPU device: archetype + mutable power-cap / energy state.
///
/// The device executes at most one kernel at a time (mirroring StarPU's
/// one-worker-per-CUDA-device execution model); the owner is responsible
/// for calling begin_kernel/end_kernel at the right virtual times.
class GpuModel {
 public:
  GpuModel(GpuArchSpec spec, std::int32_t index);

  [[nodiscard]] const GpuArchSpec& spec() const { return spec_; }
  [[nodiscard]] std::int32_t index() const { return index_; }

  // -- power capping (NVML facade calls these) ------------------------------

  /// Sets the power limit, clamped to [min_cap_w, tdp_w]. Returns the
  /// actually-applied value. Takes effect immediately for subsequent
  /// kernels; an in-flight kernel keeps its negotiated speed (caps are
  /// changed between runs in the paper's methodology).
  double set_power_cap(double watts, sim::SimTime now);
  [[nodiscard]] double power_cap() const { return cap_w_; }

  // -- performance model ------------------------------------------------

  /// Occupancy of a kernel with characteristic dimension nb.
  [[nodiscard]] double utilization(double work_dim) const;

  /// Clock ratio the device settles at for `work` under the current cap.
  [[nodiscard]] double clock_ratio(const KernelWork& work) const;

  /// Predicted execution time of `work` under the current cap.
  [[nodiscard]] sim::SimTime execution_time(const KernelWork& work) const;

  /// Package draw (W) while `work` executes under the current cap.
  [[nodiscard]] double power_during(const KernelWork& work) const;

  /// Sustained rate (Gflop/s) for `work` under the current cap.
  [[nodiscard]] double rate_gflops(const KernelWork& work) const;

  // -- execution & energy accounting ------------------------------------

  /// Marks the device busy with `work` from `now`; power rises accordingly.
  void begin_kernel(const KernelWork& work, sim::SimTime now);
  /// Marks the device idle from `now`; power falls back to idle_w.
  void end_kernel(sim::SimTime now);
  [[nodiscard]] bool busy() const { return busy_; }

  /// Takes the device off the bus at `now` (whole-GPU dropout): any
  /// in-flight kernel is abandoned, draw falls to zero and the board
  /// accepts no further kernels. The energy counter keeps its integrated
  /// value — the board stops drawing, it does not forget.
  void fail(sim::SimTime now);
  [[nodiscard]] bool failed() const { return failed_; }

  /// Integrates energy up to `now` (e.g. before reading the counter).
  void advance(sim::SimTime now) { meter_.advance(now); }
  [[nodiscard]] double energy_joules() const { return meter_.joules(); }
  [[nodiscard]] double current_power_w() const { return meter_.power_w(); }
  void reset_energy(sim::SimTime now) { meter_.reset_energy(now); }

 private:
  GpuArchSpec spec_;
  std::int32_t index_;
  double cap_w_;
  bool busy_ = false;
  bool failed_ = false;
  EnergyMeter meter_;
};

}  // namespace greencap::hw
