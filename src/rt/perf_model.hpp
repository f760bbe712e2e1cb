// Performance models (StarPU's history- and regression-based models).
//
// The history model keeps per-(codelet, worker, precision, size) execution
// statistics; the regression model fits time = a * flops per
// (codelet, worker, precision) for sizes never observed. Models are keyed
// per *worker* rather than per architecture because power capping makes
// identical boards perform differently — this is precisely the mechanism
// the paper relies on: "the performance models are calibrated following
// each modification to the power capping settings. Thus, the scheduler is
// implicitly informed of the changes."
//
// Both models live in one slot per (codelet id, worker, precision).
// dm-family schedulers look the model up for every ready task on every
// worker, so the hot path indexes vectors by integers and never builds a
// string key (StarPU likewise keys its history by a 32-bit footprint).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hw/kernel_work.hpp"
#include "rt/types.hpp"
#include "sim/time.hpp"

namespace greencap::rt {

struct PerfStats {
  std::uint64_t samples = 0;
  double mean_s = 0.0;
  double m2 = 0.0;  ///< Welford accumulator for the variance

  void record(double seconds);
  [[nodiscard]] double variance() const;
};

class HistoryPerfModel {
 public:
  /// Dense id for `codelet`, assigned on first sight. Ids are stable for
  /// the model's lifetime: invalidate() and decoding a checkpoint keep them.
  CodeletId intern(const std::string& codelet);

  /// Id of an already-interned name, kNoCodelet when unknown.
  [[nodiscard]] CodeletId id_of(const std::string& codelet) const;

  /// Records an observed execution time.
  void record(CodeletId codelet, WorkerId worker, const hw::KernelWork& work,
              sim::SimTime duration);

  /// Expected execution time, or nullopt when the model has no information
  /// for this (codelet, worker, size) and no regression fallback yet.
  [[nodiscard]] std::optional<sim::SimTime> expected(CodeletId codelet, WorkerId worker,
                                                     const hw::KernelWork& work) const;

  /// True when an exact-size history entry exists.
  [[nodiscard]] bool calibrated(CodeletId codelet, WorkerId worker,
                                const hw::KernelWork& work) const;

  // By-name forms (calibration replay, tests).
  void record(const std::string& codelet, WorkerId worker, const hw::KernelWork& work,
              sim::SimTime duration) {
    record(intern(codelet), worker, work, duration);
  }
  [[nodiscard]] std::optional<sim::SimTime> expected(const std::string& codelet, WorkerId worker,
                                                     const hw::KernelWork& work) const {
    return expected(id_of(codelet), worker, work);
  }
  [[nodiscard]] bool calibrated(const std::string& codelet, WorkerId worker,
                                const hw::KernelWork& work) const {
    return calibrated(id_of(codelet), worker, work);
  }

  /// Forgets everything — the paper's protocol invalidates the models after
  /// every power-cap change, then recalibrates.
  void invalidate();

  /// Forgets one worker's history and regression state. Used when a worker
  /// is quarantined (its samples describe a device that no longer exists)
  /// or its device's effective cap changed behind the scheduler's back
  /// (stale samples would mislead dm-family placement until they wash out).
  void invalidate_worker(WorkerId worker);

  /// Number of (codelet, worker, precision, size) history entries.
  [[nodiscard]] std::size_t entry_count() const;

  /// Checkpoint layout of both tables: each entry keyed by (codelet name,
  /// worker, precision[, size]) and written in that order whatever the
  /// recording order, so equal models encode to equal bytes. Reading
  /// replaces the contents wholesale; codelet ids stay stable.
  /// Instantiated for ckpt::Writer (const model) and ckpt::Reader.
  template <typename C, typename Self>
  static void io(C& c, Self& model);

 private:
  struct Regression {
    double sum_xt = 0.0;  ///< sum(flops * time)
    double sum_xx = 0.0;  ///< sum(flops^2)
    std::uint64_t samples = 0;
    [[nodiscard]] double slope() const { return sum_xx > 0 ? sum_xt / sum_xx : 0.0; }
  };
  /// State of one (codelet, worker, precision): per-size history in
  /// ascending size order, searched linearly (a codelet sees a handful of
  /// tile sizes), plus the regression (present once it has samples).
  struct Slot {
    std::vector<std::pair<std::int64_t, PerfStats>> sizes;
    Regression regression;

    [[nodiscard]] const PerfStats* history(std::int64_t size) const;
    /// The size's history entry, inserted empty on first sight.
    PerfStats& history_entry(std::int64_t size);
  };

  /// hw::Precision values (kDouble is the last).
  static constexpr std::size_t kPrecisions = static_cast<std::size_t>(hw::Precision::kDouble) + 1;

  [[nodiscard]] const Slot* find(CodeletId codelet, WorkerId worker, std::uint8_t precision) const;
  Slot& slot(CodeletId codelet, WorkerId worker, std::uint8_t precision);

  /// Calls f(name, worker, precision, slot) for every slot, in (codelet
  /// name, worker, precision) order.
  template <typename F>
  void for_each_slot(F&& f) const;

  std::vector<std::string> names_;  // indexed by CodeletId
  std::unordered_map<std::string, CodeletId> ids_;
  // slots_[codelet][worker * kPrecisions + precision], grown on demand.
  std::vector<std::vector<Slot>> slots_;
};

}  // namespace greencap::rt
