// The flag table the greencap CLI and the bench binaries share (--jobs,
// capture outputs, resilience, checkpoint) with its one validation, one
// mapping to ObservabilityOptions, one artifact exporter, and the one place
// that opens the session and engine. Driver-only flags stay in the driver.
#pragma once

#include <functional>
#include <iostream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "ckpt/signal.hpp"
#include "core/checkpoint.hpp"
#include "core/cli_flags.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"

namespace greencap::core {

struct CampaignFlags {
  /// Campaign worker threads (1 = serial, 0 = hardware concurrency).
  int jobs = 1;
  // Capture outputs and the telemetry sampling period.
  std::string trace_json;
  std::string metrics_json;
  std::string profile_json;
  std::string profile_html;
  double telemetry_period_ms = 0.0;
  /// Fault-injection / resilience knobs (docs/ROBUSTNESS.md).
  ResilienceConfig resilience;
  /// Checkpoint/restart knobs (docs/CHECKPOINTING.md); all off by default.
  CheckpointOptions ckpt;

  /// Registers --jobs alone, for drivers that run no experiments.
  void add_jobs(FlagParser& parser);
  /// Registers --jobs, the capture, resilience and checkpoint flags.
  void add_all(FlagParser& parser);

  /// Parses argv with `parser`, then checks --jobs and its combination with
  /// the checkpoint flags. Returns the first error (drivers print it after
  /// "argv0: " and exit 2), or an empty string.
  [[nodiscard]] std::string parse(const FlagParser& parser, int argc, char* const* argv) const;

  /// Capture switches for the requested files. A trace, a profile, or
  /// `more_telemetry` (a driver's own telemetry output) samples every 10
  /// virtual ms unless --telemetry-period-ms says otherwise.
  [[nodiscard]] ObservabilityOptions observability(bool more_telemetry = false) const;
};

/// Checks each config before any run starts: the scheduler must be one
/// rt::make_scheduler knows, n a positive multiple of nb, the --cpu-cap
/// package and every fault-plan GPU present on the config's platform, and
/// the fault plan must parse. Returns the first error as "flag '--X' ..."
/// (drivers print it after "argv0: " and exit 2), or an empty string.
[[nodiscard]] std::string check_configs(const std::vector<ExperimentConfig>& configs);

/// --help sections for the flags add_all() registers beyond --jobs; a
/// driver may append its own flags to a section.
inline constexpr const char* kCaptureHelp =
    "observability:\n"
    "  --trace-json FILE        Chrome/Perfetto trace-event export\n"
    "  --metrics-json FILE      metrics registry snapshot\n"
    "  --profile-json FILE      energy-attribution profile (docs/PROFILING.md)\n"
    "  --profile-html FILE      self-contained HTML run report\n"
    "  --telemetry-period-ms N  sample power/occupancy every N virtual ms\n";
inline constexpr const char* kResilienceHelp =
    "fault injection / resilience (docs/ROBUSTNESS.md):\n"
    "  --faults SPEC            fault plan: kind@gpuN:key=val,... (';'-separated)\n"
    "                           or @FILE for a JSON plan\n"
    "  --fault-seed N           injector RNG seed (default: derived from --seed)\n"
    "  --reconcile-ms N         verify/re-assert cap drift every N virtual ms\n"
    "  --degrade                fall back to H on cap failure instead of aborting\n"
    "  --cap-retries N          retry budget per cap write (default 3)\n";
inline constexpr const char* kCheckpointHelp =
    "checkpoint/restart (docs/CHECKPOINTING.md):\n"
    "  --checkpoint FILE        write crash-consistent checkpoints to FILE\n"
    "  --checkpoint-every-ms N  also checkpoint mid-run every N virtual ms\n"
    "  --watchdog-ms N          abort-with-checkpoint if no task completes\n"
    "                           for N virtual ms\n"
    "  --resume FILE            resume a killed/interrupted run from FILE\n"
    "  --ckpt-kill-after N      test hook: _Exit(137) after the Nth write\n";

/// Called after each artifact lands, to print the driver's "wrote" line.
using WroteHook = std::function<void(const char* what, const std::string& path)>;

/// Unless `path` is empty: obs::write_artifact(path, what, writer), then
/// `wrote(what, path)`. A failed write exits 1, because a truncated
/// artifact must not look like a successful run.
void export_artifact(const std::string& path, const char* what,
                     const std::function<void(std::ostream&)>& writer, const WroteHook& wrote);

/// If `result` carries a capture, exports the files `flags` requests from
/// it in this order: trace, metrics, `between(capture)` (the driver's own
/// files), profile JSON, HTML report. Replayed results carry none: their
/// files were written before their commit.
void export_capture(const ExperimentResult& result, const CampaignFlags& flags,
                    const WroteHook& wrote,
                    const std::function<void(const ObservabilityData&)>& between = {});

/// The engine at --jobs and, when a checkpoint flag is set, the session
/// (with SIGINT/SIGTERM handlers installed). Construction throws
/// ckpt::CheckpointError on a bad --resume file.
class CampaignDriver {
 public:
  explicit CampaignDriver(const CampaignFlags& flags);

  std::vector<ExperimentResult> run(const std::vector<ExperimentConfig>& configs,
                                    const CampaignEngine::ResultHook& on_result) {
    return engine_.run(configs, on_result, session_.get());
  }

  [[nodiscard]] CampaignEngine& engine() { return engine_; }

 private:
  std::unique_ptr<CheckpointSession> session_;
  CampaignEngine engine_;
};

/// Runs a driver's campaign body: an interrupted-and-checkpointed campaign
/// exits with the conventional interrupt code, any other error with an
/// "error: ..." line and 1.
template <typename Fn>
int run_guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const ckpt::InterruptedError& err) {
    std::cerr << err.what() << "\n";
    return ckpt::kInterruptExitCode;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 1;
  }
}

}  // namespace greencap::core
