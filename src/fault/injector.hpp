// Seeded fault injector driven by the simulator's virtual clock.
//
// The injector is the single authority for when a planned fault is live.
// Timed faults (drift, energy reset, dropout) are scheduled as simulator
// events when arm() is called — their times are relative to the arming
// instant, so a plan written against "seconds into the measured run" keeps
// meaning regardless of how long calibration took. Windowed faults are
// evaluated synchronously at the point of use: straggler windows share the
// arming-relative axis, while cap-write-failure windows use the raw
// virtual clock because the caps are applied *before* arming (the paper's
// between-runs protocol) and a capfail plan must be able to hit them.
//
// All randomness comes from the injector's own Xoshiro256 stream, seeded
// at construction: the same (plan, seed) pair replays bit-identically and
// never perturbs the runtime's RNG, so enabling a plan that happens to
// inject nothing leaves the simulation byte-identical.
//
// Consumers subscribe through the on_*() listener lists; the injector
// never reaches into other components itself (no fault -> power/rt
// dependency).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace greencap::ckpt {
class Reader;
class Writer;
}

namespace greencap::fault {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // -- wiring ---------------------------------------------------------------

  /// Optional observability sinks (not owned; null = off).
  void set_metrics(obs::MetricsRegistry* metrics);
  void set_trace(sim::Trace* trace) { trace_ = trace; }
  /// Narrates fired faults at kDebug to the run's logger (not owned).
  void set_logger(sim::Logger* log) { log_ = log; }

  /// Listener registration. Handlers fire at the fault's virtual instant,
  /// inside the simulator event; registration order is invocation order.
  void on_drift(std::function<void(int gpu, double factor, double watts, sim::SimTime now)> fn) {
    drift_handlers_.push_back(std::move(fn));
  }
  void on_dropout(std::function<void(int gpu, sim::SimTime now)> fn) {
    dropout_handlers_.push_back(std::move(fn));
  }
  void on_energy_reset(std::function<void(int gpu, sim::SimTime now)> fn) {
    energy_reset_handlers_.push_back(std::move(fn));
  }

  // -- lifecycle ------------------------------------------------------------

  /// Schedules the plan's timed faults on `sim`, with t=0 meaning "now".
  /// Call once, after calibration, immediately before the measured run.
  void arm(sim::Simulator& sim);

  /// Cancels every not-yet-fired timed fault (call at DAG drain so stray
  /// fault events cannot extend the virtual clock past completion).
  void cancel_pending();

  // -- synchronous queries --------------------------------------------------

  /// Consulted by the NVML facade on every cap write. Returns the injected
  /// error for this attempt, or nullopt to let the write through. Consumes
  /// injector randomness for probabilistic events (deterministic per
  /// attempt sequence).
  [[nodiscard]] std::optional<CapError> cap_write_error(int gpu, sim::SimTime now);

  /// Slowdown multiplier for a kernel starting on `gpu` at `now` (>= 1;
  /// 1 = no active straggler window).
  [[nodiscard]] double straggler_factor(int gpu, sim::SimTime now) const;

  /// True once a dropout fault has fired for `gpu`.
  [[nodiscard]] bool dropped(int gpu) const;

  // -- introspection --------------------------------------------------------

  struct Counts {
    std::uint64_t cap_write_failures = 0;
    std::uint64_t drifts = 0;
    std::uint64_t energy_resets = 0;
    std::uint64_t dropouts = 0;
  };
  [[nodiscard]] const Counts& counts() const { return counts_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] sim::SimTime origin() const { return origin_; }

  // -- checkpoint support ---------------------------------------------------

  /// Appends the complete mutable state apart from the pending simulator
  /// events, which are checkpointed (by plan index + fire time) with the
  /// global event set and re-created via rearm_event().
  void save(ckpt::Writer& w) const;

  /// Reads what save() wrote, without scheduling anything; `sim` becomes
  /// the clock for subsequent queries and rearm_event() calls.
  void load(ckpt::Reader& r, sim::Simulator& sim);

  /// The checkpoint layout of counts(), shared with experiment results.
  template <typename C, typename T>
  static void io_counts(C& c, T& counts) {
    c.io(counts.cap_write_failures);
    c.io(counts.drifts);
    c.io(counts.energy_resets);
    c.io(counts.dropouts);
  }

  /// Re-creates the timed event for plan entry `plan_index` at absolute
  /// time `when` (checkpoint restore of a not-yet-fired fault).
  void rearm_event(std::size_t plan_index, sim::SimTime when);

  /// Not-yet-fired timed faults as (plan index, event id) pairs.
  [[nodiscard]] const std::vector<std::pair<std::size_t, sim::EventId>>& pending() const {
    return pending_;
  }

 private:
  /// The layout save() writes and load() reads.
  template <typename C, typename Self>
  static void io(C& c, Self& f);
  /// Records the firing of event `e` (metrics, trace marker) at `now`.
  void note_fired(const FaultEvent& e, sim::SimTime now);
  /// Schedules the timed fault for plan entry `index` at absolute `when`.
  void schedule_timed(std::size_t index, sim::SimTime when);
  /// Window test [t, until); `relative` shifts the axis to the arm origin.
  [[nodiscard]] bool in_window(const FaultEvent& e, sim::SimTime now, bool relative) const;

  FaultPlan plan_;
  sim::Xoshiro256 rng_;
  bool armed_ = false;
  sim::SimTime origin_;

  /// Per-plan-event remaining forced-failure budget (capfail count=N).
  std::vector<int> remaining_count_;
  std::vector<bool> gpu_dropped_;
  std::vector<std::pair<std::size_t, sim::EventId>> pending_;
  sim::Simulator* sim_ = nullptr;

  std::vector<std::function<void(int, double, double, sim::SimTime)>> drift_handlers_;
  std::vector<std::function<void(int, sim::SimTime)>> dropout_handlers_;
  std::vector<std::function<void(int, sim::SimTime)>> energy_reset_handlers_;

  Counts counts_;
  sim::Trace* trace_ = nullptr;
  sim::Logger* log_ = nullptr;
  obs::Counter* m_capfail_ = nullptr;
  obs::Counter* m_drift_ = nullptr;
  obs::Counter* m_energy_reset_ = nullptr;
  obs::Counter* m_dropout_ = nullptr;
};

}  // namespace greencap::fault
