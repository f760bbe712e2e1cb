// Periodic checkpoint ticker and virtual-time hang watchdog.
//
// The Checkpointer owns two simulator events:
//
//  * the *tick* — every `period` of virtual time it invokes the caller's
//    write callback (which captures the run and writes a checkpoint
//    file). A tick is a pure read plus file I/O: it never advances
//    platform energy or touches run state, so enabling checkpointing
//    leaves every artifact byte-identical. A pending interrupt (SIGINT /
//    SIGTERM latch) is honoured at the next tick: one final checkpoint
//    with reason "signal", then InterruptedError unwinds the run.
//
//  * the *watchdog* — every `watchdog` of virtual time it samples a
//    progress counter (completed tasks). If the counter has not moved
//    since the previous sample, the run is declared hung: a final
//    checkpoint with reason "watchdog" is written and HangError thrown,
//    so a deadlocked experiment aborts with its state preserved instead
//    of spinning forever.
//
// A resume re-runs the in-flight experiment from its start, so both events
// are armed fresh by arm() on every run; the write callback decides whether
// a tick writes (see core::RunContext).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "sim/simulator.hpp"

namespace greencap::ckpt {

/// Raised when the hang watchdog fires; the abort checkpoint is already
/// on disk at that point.
class HangError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Checkpointer {
 public:
  /// `write(reason)` must capture the run and write the checkpoint file.
  using WriteFn = std::function<void(const char* reason)>;
  /// Monotone progress probe; the watchdog declares a hang when two
  /// consecutive samples are equal.
  using ProgressFn = std::function<std::uint64_t()>;

  struct Options {
    sim::SimTime period = sim::SimTime::zero();    ///< zero = no periodic ticks
    sim::SimTime watchdog = sim::SimTime::zero();  ///< zero = no watchdog
  };

  Checkpointer(sim::Simulator& sim, Options options, WriteFn write, ProgressFn progress)
      : sim_{sim},
        options_{options},
        write_{std::move(write)},
        progress_{std::move(progress)} {}

  /// Schedules the first tick and watchdog sample one full period from now.
  void arm();

  /// Cancels both events (installed as a runtime drain hook, so neither
  /// outlives the DAG and extends the virtual clock).
  void cancel();

  [[nodiscard]] bool tick_armed() const { return tick_armed_; }
  [[nodiscard]] bool watchdog_armed() const { return watchdog_armed_; }

 private:
  void tick();
  void watchdog_fire();

  sim::Simulator& sim_;
  Options options_;
  WriteFn write_;
  ProgressFn progress_;
  sim::EventId tick_event_;
  sim::EventId watchdog_event_;
  std::uint64_t watchdog_progress_ = 0;
  bool tick_armed_ = false;
  bool watchdog_armed_ = false;
};

}  // namespace greencap::ckpt
