// The benchmark's three workloads: their inputs, one untraced pass through
// the library's public entry points, artifact export, and the correctness
// gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "digest.hpp"
#include "prof/profile.hpp"

namespace perfbench {

enum class Workload { kPaperFig3, kAdvisorSweep, kResilientObserved };

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(Workload workload);

/// The seed the stored advisor-sweep reference digests belong to. The other
/// two workloads run the same experiments at every seed.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Runs per resilient-observed pass.
inline constexpr std::size_t kResilientRunsPerPass = 2;

/// Mid-run checkpoint period of resilient-observed, in virtual ms.
inline constexpr double kCheckpointEveryMs = 5000.0;

/// Everything a pass needs, built before the first query is issued.
struct Inputs {
  Workload workload = Workload::kPaperFig3;
  /// One pass, in issue order.
  std::vector<greencap::core::ExperimentConfig> configs;
  /// Concurrent callers, each one CampaignEngine worker.
  int jobs = 1;
  /// Whether the runs of a pass share the engine's CalibrationCache.
  bool shared_cache = true;
  ReferenceTable reference;
  /// Whether every run must find its digest in `reference`.
  bool reference_required = false;
  /// Where resilient-observed writes its artifacts and checkpoints.
  std::filesystem::path scratch;
};

/// Builds the inputs of `workload` from `seed`, loads the reference digests
/// (a missing file is an error unless `writing_reference`) and creates the
/// scratch directory.
[[nodiscard]] Inputs set_up(Workload workload, std::uint64_t seed,
                            const std::filesystem::path& reference_file,
                            const std::filesystem::path& scratch, bool writing_reference);

struct PassResult {
  double wall_s = 0.0;
  std::vector<double> run_ms;      ///< per run, in pass order
  std::vector<RunDigest> digests;  ///< per run, in pass order
  /// Traffic of the pass's cold CalibrationCache: misses are the distinct
  /// keys, hits + misses the lookups.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

/// One untraced pass: paper-fig3 through CampaignEngine::run, advisor-sweep
/// as a closed loop of `jobs` callers of core::run_experiment, and
/// resilient-observed as serial checkpointed runs that export their
/// artifacts.
[[nodiscard]] PassResult run_pass(const Inputs& inputs);

/// Options of the CheckpointSession a resilient-observed run writes `file`
/// (inside the scratch directory) through.
[[nodiscard]] greencap::core::CheckpointOptions checkpoint_options(const Inputs& inputs,
                                                                   const char* file);

/// Artifact export shared by the untraced pass and the traced replay. Each
/// writes one file into `dir`, returns its size in bytes, and throws
/// std::runtime_error when the write fails.
std::uint64_t export_trace(const greencap::core::ObservabilityData& data,
                           const std::filesystem::path& dir);
std::uint64_t export_metrics(const greencap::core::ObservabilityData& data,
                             const std::filesystem::path& dir);
std::uint64_t export_profile(const greencap::prof::Profile& profile,
                             const std::filesystem::path& dir);
[[nodiscard]] greencap::prof::Profile analyze_profile(
    const greencap::core::ObservabilityData& data);

/// The correctness gate. Every run is compared bit for bit with its stored
/// reference digest and with the first result seen for the same experiment
/// (repeated advisor queries, later passes, the traced replay); paper-fig3
/// also checks the paper's anchor that BBBB beats HHHH in Gflop/s/W on
/// 32-AMD-4-A100. Each method returns the number of runs that failed and
/// reports the first few mismatches on stderr.
class Checker {
 public:
  explicit Checker(const Inputs& inputs) : inputs_{inputs} {}

  std::size_t check_pass(const std::vector<RunDigest>& digests);
  /// The traced replay must reproduce the untraced pass bit for bit.
  std::size_t check_replay(const std::vector<RunDigest>& untraced,
                           const std::vector<RunDigest>& traced);
  /// A pass that threw: every one of its runs counts as failed.
  std::size_t fail_pass(const std::string& what);

 private:
  void report(const std::string& message);

  const Inputs& inputs_;
  std::map<std::string, RunDigest> first_seen_;
  std::size_t reported_ = 0;
};

}  // namespace perfbench
