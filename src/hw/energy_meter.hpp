// Exact energy integration for a device with piecewise-constant power.
//
// Device models report every power transition (kernel begin/end, cap
// change); the meter integrates joules = sum(P_i * dt_i) exactly over the
// virtual timeline, which is what the NVML/RAPL facades expose to the
// measurement methodology of the paper (counter read at start and end of
// the run, subtracted).
#pragma once

#include "sim/time.hpp"

namespace greencap::hw {

class EnergyMeter {
 public:
  /// Accumulates energy up to `now` at the current power, then switches to
  /// `power_w`. `now` must be >= the last update time.
  void set_power(double power_w, sim::SimTime now);

  /// Accumulates energy up to `now` without changing the power level.
  void advance(sim::SimTime now);

  [[nodiscard]] double joules() const { return joules_; }
  [[nodiscard]] double power_w() const { return power_w_; }
  [[nodiscard]] sim::SimTime last_update() const { return last_update_; }

  /// Resets the accumulated energy (not the power level) — used when an
  /// experiment reuses a platform instance across runs.
  void reset_energy(sim::SimTime now);

 private:
  double power_w_ = 0.0;
  double joules_ = 0.0;
  sim::SimTime last_update_ = sim::SimTime::zero();
};

/// Monotonic reconstruction of a resettable energy counter.
///
/// NVML's total-energy counter restarts from zero on driver reload (and
/// the 64-bit millijoule register can in principle wrap); naive
/// end-minus-start subtraction then goes negative. Real measurement
/// tooling feeds every raw reading through a tracker like this one: a
/// backwards jump is interpreted as a reset, the pre-reset total is folded
/// into an offset, and total() stays monotone.
class MonotonicEnergyTracker {
 public:
  /// Folds the next raw counter reading in; returns the reconstructed
  /// monotonic total (offset + raw).
  double update(double raw_joules) {
    if (raw_joules + 1e-9 < last_raw_) {
      // Counter went backwards: a reset happened since the last reading.
      // Everything accumulated before it is preserved in the offset.
      offset_ += last_raw_;
      ++resets_;
    }
    last_raw_ = raw_joules;
    return offset_ + last_raw_;
  }

  /// Records a reset the consumer observed directly (e.g. a fault listener
  /// watching the driver reload): folds the last reading into the offset
  /// immediately. The backwards-jump heuristic alone would miss a reset
  /// whenever the counter climbs past its old value before the next
  /// reading, silently losing the pre-reset energy.
  void note_reset() {
    offset_ += last_raw_;
    last_raw_ = 0.0;
    ++resets_;
  }

  [[nodiscard]] double total() const { return offset_ + last_raw_; }
  [[nodiscard]] int resets_seen() const { return resets_; }

 private:
  double offset_ = 0.0;
  double last_raw_ = 0.0;
  int resets_ = 0;
};

}  // namespace greencap::hw
