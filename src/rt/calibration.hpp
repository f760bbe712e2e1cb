// Performance-model calibration (StarPU's calibration runs).
//
// StarPU populates its history models with a few timed executions of each
// kernel on each processing unit; the paper reruns this calibration after
// every power-cap change so that "the scheduler is implicitly informed of
// the changes". The Calibrator reproduces that protocol: it samples the
// device-model oracle for every registered (codelet, size) on every
// eligible worker and records the measurements into the runtime's history
// model. recalibrate_all() re-runs the whole campaign — call it right
// after PowerManager applies a new configuration.
//
// Record/replay: the history model's state is purely a function of the
// ordered record() calls it receives, and calibration never advances the
// virtual clock. A CalibrationRecord therefore captures a measurement
// campaign exactly; replaying it into a fresh runtime on the same platform
// under the same caps rebuilds bit-identical model state. The campaign
// engine's warmup cache relies on this to share calibration across runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/kernel_work.hpp"
#include "rt/codelet.hpp"
#include "rt/runtime.hpp"

namespace greencap::rt {

/// The ordered sequence of history-model record() calls a calibration
/// campaign issued. Immutable once built; safe to share across threads.
struct CalibrationRecord {
  struct Entry {
    std::uint32_t codelet;  ///< index into `codelets`
    std::int32_t worker;
    hw::KernelWork work;
    double time_s;
  };
  /// The distinct codelet names, in the order they were first recorded.
  std::vector<std::string> codelets;
  std::vector<Entry> entries;
};

/// Re-issues every recorded measurement into `runtime`'s history model,
/// in the original order. Each codelet name is interned once, in the
/// record's order; the entries are recorded by the resulting ids. The
/// target runtime must have at least as many workers as the recording one
/// (same platform in practice).
void replay_calibration(Runtime& runtime, const CalibrationRecord& record);

class Calibrator {
 public:
  explicit Calibrator(Runtime& runtime) : runtime_{runtime} {}

  /// Registers a calibration set and measures it immediately.
  void calibrate(const Codelet& codelet, const std::vector<hw::KernelWork>& works,
                 int samples_per_point = 3);

  /// Invalidates the history model and re-measures every registered set —
  /// the paper's "recalibrate after each power-cap modification" step.
  void recalibrate_all();

  [[nodiscard]] std::size_t registered_sets() const { return sets_.size(); }

  /// Mirrors every subsequent measurement into `record` (not owned; null
  /// stops recording). The recorded entries match the record() calls made
  /// on the runtime's history model one-for-one.
  void set_record_sink(CalibrationRecord* record) { record_ = record; }

 private:
  void measure(const Codelet& codelet, const std::vector<hw::KernelWork>& works, int samples);

  struct Set {
    const Codelet* codelet;
    std::vector<hw::KernelWork> works;
    int samples;
  };
  Runtime& runtime_;
  std::vector<Set> sets_;
  CalibrationRecord* record_ = nullptr;
};

}  // namespace greencap::rt
