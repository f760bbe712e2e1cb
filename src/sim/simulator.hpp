// The discrete-event simulation driver.
//
// A Simulator owns the virtual clock and the pending-event set. Components
// (device models, the task runtime) schedule callbacks at absolute or
// relative virtual times; run() drains events in deterministic order while
// advancing the clock monotonically.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace greencap::sim {

/// Thrown when a component tries to schedule an event in the virtual past.
class TimeTravelError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  /// Current virtual time. Monotonically non-decreasing across run().
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `when` (must be >= now()).
  EventId at(SimTime when, Callback cb);

  /// Schedules `cb` after a relative delay (must be >= 0).
  EventId after(SimTime delay, Callback cb);

  /// Cancels a pending event; returns true if it had not fired yet.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the event set is exhausted. Returns the final clock value.
  SimTime run();

  /// Runs until the event set is exhausted or the clock would pass
  /// `deadline`; events at exactly `deadline` fire. Returns the clock.
  SimTime run_until(SimTime deadline);

  /// Executes at most one event. Returns false if none were pending.
  bool step();

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Number of event callbacks currently on the C++ stack. 1 inside a
  /// normally-dispatched callback; >1 when a callback re-entered the loop
  /// via a nested run_until() (PowerManager::wait_virtual backoff); the
  /// checkpointer defers its ticks out of such nested windows.
  [[nodiscard]] int callback_depth() const { return executing_; }

 private:
  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
  int executing_ = 0;
};

}  // namespace greencap::sim
