// Async-signal-safe interrupt latch for checkpoint-on-SIGINT/SIGTERM.
//
// The handler only sets a volatile flag; the checkpointer polls it at
// every periodic tick (writing a "run" checkpoint) and the campaign engine
// at every experiment boundary (a "campaign" checkpoint), then unwinds
// with InterruptedError so main() can exit with the conventional
// 128+SIGINT status.
#pragma once

#include <stdexcept>

namespace greencap::ckpt {

/// Raised after an interrupt-triggered checkpoint has been written.
class InterruptedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Conventional exit status for an interrupted-but-checkpointed run.
inline constexpr int kInterruptExitCode = 130;  // 128 + SIGINT

/// Installs SIGINT/SIGTERM handlers that latch the interrupt flag.
/// Idempotent.
void install_signal_handlers();

/// True once SIGINT/SIGTERM was received (or request_interrupt() called).
[[nodiscard]] bool interrupted();

/// Latches the flag from test code, without raising a real signal.
void request_interrupt();

/// Clears the latch (tests only).
void clear_interrupt();

}  // namespace greencap::ckpt
