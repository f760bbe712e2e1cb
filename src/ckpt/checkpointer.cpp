#include "ckpt/checkpointer.hpp"

#include <string>

#include "ckpt/signal.hpp"

namespace greencap::ckpt {

void Checkpointer::arm() {
  if (options_.period > sim::SimTime::zero() && !tick_armed_) {
    tick_armed_ = true;
    tick_event_ = sim_.after(options_.period, [this] { tick(); });
  }
  if (options_.watchdog > sim::SimTime::zero() && !watchdog_armed_) {
    watchdog_armed_ = true;
    watchdog_progress_ = progress_();
    watchdog_event_ = sim_.after(options_.watchdog, [this] { watchdog_fire(); });
  }
}

void Checkpointer::cancel() {
  if (tick_armed_) {
    sim_.cancel(tick_event_);
    tick_armed_ = false;
  }
  if (watchdog_armed_) {
    sim_.cancel(watchdog_event_);
    watchdog_armed_ = false;
  }
}

void Checkpointer::tick() {
  tick_armed_ = false;
  if (sim_.callback_depth() > 1) {
    // Nested dispatch (a callback re-entered the loop via run_until): the
    // outer callback is still mid-flight. Skip this tick and try again one
    // period later, so every checkpoint lands between top-level events.
    tick_armed_ = true;
    tick_event_ = sim_.after(options_.period, [this] { tick(); });
    return;
  }
  if (interrupted()) {
    write_("signal");
    throw InterruptedError{
        "interrupted (SIGINT/SIGTERM): checkpoint written at the current tick"};
  }
  write_("periodic");
  tick_armed_ = true;
  tick_event_ = sim_.after(options_.period, [this] { tick(); });
}

void Checkpointer::watchdog_fire() {
  watchdog_armed_ = false;
  if (sim_.callback_depth() > 1) {
    // Nested dispatch (see tick()): the nested window is itself forward
    // progress. Re-sample one period on.
    watchdog_armed_ = true;
    watchdog_event_ = sim_.after(options_.watchdog, [this] { watchdog_fire(); });
    return;
  }
  const std::uint64_t progress = progress_();
  if (progress == watchdog_progress_) {
    write_("watchdog");
    throw HangError{"hang watchdog: no task completed in the last " +
                    std::to_string(options_.watchdog.sec() * 1e3) +
                    " virtual ms; abort checkpoint written"};
  }
  watchdog_progress_ = progress;
  watchdog_armed_ = true;
  watchdog_event_ = sim_.after(options_.watchdog, [this] { watchdog_fire(); });
}

}  // namespace greencap::ckpt
