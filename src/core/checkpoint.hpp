// Campaign-level checkpoint/restart session (docs/CHECKPOINTING.md).
//
// A CheckpointSession threads through CampaignEngine::run (core/engine.hpp),
// which owns the session protocol for every driver, and gives a whole
// campaign crash consistency:
//
//  * before the first experiment and after every completed one it writes
//    a *boundary* checkpoint of the completed results — kill the process
//    anywhere and a resume replays the finished experiments instead of
//    re-running them, byte-identically, and re-runs the in-flight one from
//    its start;
//
//  * when a run stops early (a signal at a periodic tick, or the hang
//    watchdog) run_experiment() calls back into write_run_checkpoint(),
//    producing a *run* checkpoint. Its payload is the boundary payload;
//    only its manifest says where the run stopped. Periodic ticks write
//    nothing;
//
//  * a SIGINT/SIGTERM latch is honoured between experiments (and at the
//    next periodic tick inside one): a final "signal" checkpoint is
//    written and InterruptedError unwinds to the driver, which exits with
//    ckpt::kInterruptExitCode.
//
// Campaign identity: every experiment's config is stored by its canonical
// binary encoding. On resume each replayed config must match the config
// the driver derives from its own flags, byte for byte — a checkpoint can
// never silently continue a different campaign.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/file.hpp"
#include "core/checkpoint_io.hpp"
#include "core/experiment.hpp"

namespace greencap::core {

struct CheckpointOptions {
  /// Checkpoint file to write (--checkpoint). Empty disables all writes.
  std::string path;
  /// Checkpoint file to resume from (--resume). Empty = fresh start.
  std::string resume_path;
  /// Periodic tick interval in virtual ms (0 = no ticks). A tick polls the
  /// interrupt latch and is a kill point; it writes nothing.
  double every_ms = 0.0;
  /// Hang-watchdog window in virtual ms (0 = no watchdog).
  double watchdog_ms = 0.0;
  /// Test hook (--ckpt-kill-after): _Exit(137) at the Nth checkpoint point,
  /// counting file writes (right after the rename lands) and periodic
  /// ticks. 0 = never.
  int kill_after = 0;
};

class CheckpointSession {
 public:
  /// Loads `options.resume_path` if set; throws ckpt::CheckpointError on
  /// a missing/corrupt/truncated file.
  explicit CheckpointSession(CheckpointOptions options);

  [[nodiscard]] const CheckpointOptions& options() const { return options_; }
  [[nodiscard]] bool writes_enabled() const { return !options_.path.empty(); }

  /// True while completed experiments from the resume file remain unreplayed.
  [[nodiscard]] bool next_is_replay() const { return cursor_ < completed_.size(); }

  /// If the next campaign position is a replay, verifies `config` matches
  /// the checkpointed config byte-for-byte and returns the stored result;
  /// std::nullopt once the replay prefix is exhausted, or for a stored run
  /// that captured observability, which is re-run so its exports and
  /// stdout come out again. Also honours the interrupt latch.
  [[nodiscard]] std::optional<ExperimentResult> try_replay(const ExperimentConfig& config);

  /// Writes a boundary checkpoint of the completed experiments, if writes
  /// are enabled. The engine calls it before the first experiment, so every
  /// later kill point leaves a resumable file.
  void write_boundary();

  /// Appends a freshly executed result and writes the boundary checkpoint.
  /// The result's artifacts must be exported BEFORE commit() (the engine
  /// commits after its result hook). The re-run of a stored experiment
  /// writes nothing; its result must equal the stored one, or
  /// ckpt::CheckpointError is thrown.
  void commit(const ExperimentConfig& config, const ExperimentResult& result);

  /// Between-experiment interrupt point: if SIGINT/SIGTERM was latched,
  /// writes a "signal" campaign checkpoint and throws ckpt::InterruptedError.
  void check_interrupt();

  /// A periodic tick of the in-flight run: a kill point that writes nothing.
  void tick();

  /// Run-stop write path (signal at a tick / watchdog), called from inside
  /// run_experiment(): the boundary payload under a "run" manifest carrying
  /// `reason` and the stop's virtual time. A resume re-runs the in-flight
  /// experiment from its start, so its config is not stored; the parameter
  /// stays for perfbench's traced replay (perfbench/src/replay.cpp).
  void write_run_checkpoint(const char* reason, const ExperimentConfig& /*config*/,
                            const ckpt_io::RunState& state);

  /// Checkpoint file writes performed so far.
  [[nodiscard]] int writes() const { return writes_; }
  /// Checkpoint points so far (file writes and periodic ticks), the count
  /// --ckpt-kill-after stops at.
  [[nodiscard]] int points() const { return points_; }

 private:
  struct CompletedBlob {
    std::string config_bytes;
    std::string result_bytes;
    bool had_obs = false;
  };

  void load_resume_file();
  void write_file(const char* kind, const char* reason, double t_virtual_s);
  void count_point();
  [[nodiscard]] std::uint64_t signature() const;

  CheckpointOptions options_;
  std::vector<CompletedBlob> completed_;
  std::size_t cursor_ = 0;
  int writes_ = 0;
  int points_ = 0;
};

/// run_experiment() with checkpoint support: arms the periodic ticker and
/// hang watchdog when the session enables them. `session == nullptr` is
/// exactly the plain run_experiment().
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config,
                                              CheckpointSession* session,
                                              const RunServices& services = {});

}  // namespace greencap::core
