// Analytic power/performance model of a RAPL-cappable CPU package.
//
// Substitutes the Xeon Gold 6126 / EPYC 7452 / EPYC 7513 packages of the
// paper's three platforms. Package power is
//
//   P = P_uncore + n_active * P_core * phi(r)
//
// with the same voltage-floor curve as the GPU model. Under a RAPL-style
// cap the package throttles all cores; we use the worst-case (all cores
// active) clock ratio so task durations are deterministic and independent
// of concurrent occupancy — the regime that matters in the paper is a
// fully-loaded node, where this is exact.
#pragma once

#include <cstdint>
#include <string>

#include "hw/energy_meter.hpp"
#include "hw/kernel_work.hpp"
#include "hw/power_curve.hpp"
#include "sim/time.hpp"

namespace greencap::hw {

/// Relative throughput of kernel families vs. GEMM on a CPU core.
struct CpuKernelFactors {
  double gemm = 1.0;
  double syrk = 0.95;
  double trsm = 0.85;
  double potrf = 0.55;  ///< sqrt/div-heavy panel; still far better than GPU
  double getrf = 0.55;
  double qr_panel = 0.50;
  double qr_apply = 0.90;
  double generic = 0.50;

  [[nodiscard]] double factor(KernelClass k) const;
};

struct CpuArchSpec {
  std::string name;
  int cores = 1;
  double tdp_w = 0.0;        ///< default package limit, and paper's 100 %
  double min_cap_w = 0.0;    ///< lowest stable RAPL limit
  double uncore_w = 0.0;     ///< package static draw (uncore + LLC + idle cores)
  double core_dyn_w = 0.0;   ///< per-core dynamic draw at full clocks
  double v_floor = 0.75;
  double perf_exponent = 1.08;
  /// Per-core dense-kernel throughput (Gflop/s) at full clocks.
  double core_gflops_single = 0.0;
  double core_gflops_double = 0.0;
  CpuKernelFactors kernel_factors;

  [[nodiscard]] double core_gflops(Precision p) const {
    return p == Precision::kSingle ? core_gflops_single : core_gflops_double;
  }
};

/// A simulated CPU package with per-core workers.
class CpuModel {
 public:
  CpuModel(CpuArchSpec spec, std::int32_t index);

  [[nodiscard]] const CpuArchSpec& spec() const { return spec_; }
  [[nodiscard]] std::int32_t index() const { return index_; }

  /// Sets the RAPL power limit, clamped to [min_cap_w, tdp_w]. Returns the
  /// applied value.
  double set_power_cap(double watts, sim::SimTime now);
  [[nodiscard]] double power_cap() const { return cap_w_; }

  /// Worst-case (all cores busy) clock ratio under the current cap.
  [[nodiscard]] double clock_ratio() const;

  /// Execution time of `work` on ONE core under the current cap.
  [[nodiscard]] sim::SimTime execution_time(const KernelWork& work) const;

  /// Sustained single-core rate (Gflop/s) under the current cap.
  [[nodiscard]] double rate_gflops(const KernelWork& work) const;

  // -- occupancy & energy accounting -------------------------------------
  // Each of the package's cores hosts one runtime worker; workers call
  // core_busy/core_idle around task execution and the meter tracks
  // P_uncore + n_active * P_core * phi(r).

  void core_busy(sim::SimTime now);
  void core_idle(sim::SimTime now);
  [[nodiscard]] int active_cores() const { return active_cores_; }

  void advance(sim::SimTime now) { meter_.advance(now); }
  [[nodiscard]] double energy_joules() const { return meter_.joules(); }
  [[nodiscard]] double current_power_w() const { return meter_.power_w(); }
  void reset_energy(sim::SimTime now) { meter_.reset_energy(now); }

 private:
  [[nodiscard]] double package_power(int active) const;
  void refresh_power(sim::SimTime now);

  CpuArchSpec spec_;
  std::int32_t index_;
  double cap_w_;
  int active_cores_ = 0;
  EnergyMeter meter_;
};

}  // namespace greencap::hw
