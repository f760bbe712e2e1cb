// Campaign-level checkpoint/restart session (docs/CHECKPOINTING.md).
//
// A CheckpointSession threads through CampaignEngine::run (core/engine.hpp),
// which owns the session protocol for every driver, and gives a whole
// campaign crash consistency:
//
//  * after every completed experiment it appends the result to its
//    completed list and writes a *boundary* checkpoint — kill the process
//    between experiments and a resume replays the finished ones instead
//    of re-running them, byte-identically;
//
//  * during an experiment (when --checkpoint-every-ms / --watchdog-ms are
//    set) run_experiment() calls back into write_run_checkpoint() with the
//    encoded ckpt_io::RunState, producing a *run* checkpoint from which the
//    in-flight experiment resumes mid-DAG;
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
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
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
  /// Mid-run periodic checkpoint interval in virtual ms (0 = boundaries only).
  double every_ms = 0.0;
  /// Hang-watchdog window in virtual ms (0 = no watchdog).
  double watchdog_ms = 0.0;
  /// Test hook (--ckpt-kill-after): _Exit(137) right after the Nth
  /// checkpoint file write completes. 0 = never.
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
  /// std::nullopt once the replay prefix is exhausted. Also honours the
  /// interrupt latch.
  [[nodiscard]] std::optional<ExperimentResult> try_replay(const ExperimentConfig& config);

  /// Appends a freshly executed result and writes the boundary checkpoint.
  /// The result's artifacts must be exported BEFORE commit() (the engine
  /// commits after its result hook): once the boundary write lands, a
  /// resume will not re-export them.
  void commit(const ExperimentConfig& config, const ExperimentResult& result);

  /// Between-experiment interrupt point: if SIGINT/SIGTERM was latched,
  /// writes a "signal" campaign checkpoint and throws ckpt::InterruptedError.
  void check_interrupt();

  /// Consumes the resume file's mid-run state, if it carries one. Throws
  /// ckpt::CheckpointError when the state belongs to a different config
  /// than the experiment about to run.
  [[nodiscard]] std::optional<ckpt_io::RunState> take_pending_run(
      const ExperimentConfig& config);

  /// Mid-run write path (periodic tick / watchdog / signal), called from
  /// inside run_experiment() with the captured state.
  void write_run_checkpoint(const char* reason, const ExperimentConfig& config,
                            const ckpt_io::RunState& state);

  /// Checkpoint file writes performed so far (boundary + mid-run).
  [[nodiscard]] int writes() const { return writes_; }

 private:
  struct CompletedBlob {
    std::string config_bytes;
    std::string result_bytes;
    bool had_obs = false;
  };

  void load_resume_file();
  void write_campaign(const char* reason);
  void write_file(ckpt::Manifest manifest, std::initializer_list<std::string_view> payload);
  void append_campaign_section(ckpt::Writer& w) const;
  [[nodiscard]] std::uint64_t signature() const;

  CheckpointOptions options_;
  std::vector<CompletedBlob> completed_;
  std::size_t cursor_ = 0;
  std::string pending_run_config_;
  ckpt_io::RunState pending_run_;  ///< mid-run state to resume; empty bytes = none
  int writes_ = 0;
};

/// run_experiment() with checkpoint support: resumes from the session's
/// pending mid-run state when present, and arms the periodic ticker and
/// hang watchdog when the session enables them. `session == nullptr` is
/// exactly the plain run_experiment().
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config,
                                              CheckpointSession* session,
                                              const RunServices& services = {});

}  // namespace greencap::core
