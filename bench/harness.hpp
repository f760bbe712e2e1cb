// Shared helpers for the benchmark binaries.
//
// Each binary regenerates one table or figure of the paper: it runs the
// full protocol through the library, prints the rows/series the paper
// reports as an aligned text table, and (with --csv) additionally emits
// machine-readable CSV to stdout.
#pragma once

#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign_flags.hpp"
#include "core/paper_params.hpp"
#include "core/report.hpp"
#include "obs/json.hpp"

namespace greencap::bench {

using core::run_guarded;

/// --help lines of the flags every bench binary takes.
inline constexpr const char* kSweepHelp =
    "  --csv                    also emit CSV after each table\n"
    "  --quick                  coarser sweeps (CI smoke mode)\n"
    "  --jobs N                 run the campaign on N worker threads (default 1; 0 = all cores)\n"
    "  --summary-json FILE      machine-readable summary of every table\n";

/// The bench harness's "wrote" line, on stderr so stdout stays the tables.
inline void wrote_to_stderr(const char* what, const std::string& path) {
  std::cerr << "wrote " << what << ": " << path << "\n";
}

/// The flags every bench binary takes: --csv, --quick, --jobs and
/// --summary-json. Binaries that run no experiments (cap sweeps, the
/// dynamic-cap streams) parse with this type alone, so the capture,
/// resilience and checkpoint flags they would ignore are unknown to them.
class SweepCli {
 public:
  bool csv = false;
  bool quick = false;  ///< coarser sweeps for smoke runs
  /// Machine-readable per-figure summary (every table the binary emits).
  std::string summary_json;
  /// The shared campaign flag table; a SweepCli registers only --jobs.
  core::CampaignFlags flags;

  static SweepCli parse(int argc, char** argv) {
    SweepCli cli;
    cli.parse_flags(argc, argv, [&](core::FlagParser& p) { cli.flags.add_jobs(p); });
    return cli;
  }

  /// The campaign engine at --jobs (sweeps fan out with for_each_index).
  [[nodiscard]] core::CampaignEngine& engine() const { return driver_->engine(); }

  /// Records one emitted table for the --summary-json export.
  void record_figure(const core::Table& table, const std::string& title) const {
    if (!summary_json.empty()) {
      figures_.emplace_back(title, table);
    }
  }

  /// Writes BENCH_summary.json-style output: every table the binary
  /// emitted, verbatim cells under their column names. Call at the end of
  /// main; exits nonzero if the write fails.
  void write_summary(const char* argv0) const {
    if (summary_json.empty()) {
      return;
    }
    std::string binary{argv0 != nullptr ? argv0 : "bench"};
    const auto slash = binary.find_last_of('/');
    if (slash != std::string::npos) {
      binary = binary.substr(slash + 1);
    }
    core::export_artifact(
        summary_json, "summary",
        [&](std::ostream& os) {
          auto strings = [&os](const std::vector<std::string>& cells) {
            os << "[";
            for (std::size_t c = 0; c < cells.size(); ++c) {
              os << (c ? "," : "") << obs::json_string(cells[c]);
            }
            os << "]";
          };
          os << "{\"schema_version\":1,\"binary\":" << obs::json_string(binary)
             << ",\"figures\":[";
          for (std::size_t f = 0; f < figures_.size(); ++f) {
            const auto& [title, table] = figures_[f];
            os << (f ? ",\n" : "\n") << "{\"title\":" << obs::json_string(title)
               << ",\"columns\":";
            strings(table.headers());
            os << ",\"rows\":[";
            for (std::size_t r = 0; r < table.row_cells().size(); ++r) {
              os << (r ? "," : "");
              strings(table.row_cells()[r]);
            }
            os << "]}";
          }
          os << "\n]}\n";
        },
        wrote_to_stderr);
  }

 protected:
  /// Parses argv against --csv, --quick, --summary-json and whatever
  /// `add_flags` registers, whose --help sections are `more_help`. A bad
  /// flag exits 2. Then opens the engine (and the session, if asked for).
  template <typename AddFlags>
  void parse_flags(int argc, char** argv, AddFlags&& add_flags,
                   std::initializer_list<const char*> more_help = {}) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::cout << "usage: " << argv[0] << " [options]\n" << kSweepHelp;
        for (const char* section : more_help) {
          std::cout << section;
        }
        std::exit(0);
      }
    }
    core::FlagParser parser;
    parser.flag("--csv", &csv);
    parser.flag("--quick", &quick);
    parser.str("--summary-json", &summary_json);
    add_flags(parser);
    if (const std::string err = flags.parse(parser, argc, argv); !err.empty()) {
      std::cerr << argv[0] << ": " << err << "\n";
      std::exit(2);
    }
    driver_ = std::make_unique<core::CampaignDriver>(flags);
  }

  std::unique_ptr<core::CampaignDriver> driver_;

 private:
  /// Every emitted table under its title, for write_summary().
  mutable std::vector<std::pair<std::string, core::Table>> figures_;
};

/// A bench binary that runs experiments: the whole shared flag table.
/// Observability capture goes to the one config a binary assigns
/// flags.observability() to when it builds its campaign (the first run
/// for the figures); resilience knobs apply to every run.
class Cli : public SweepCli {
 public:
  static Cli parse(int argc, char** argv) {
    Cli cli;
    cli.parse_flags(argc, argv, [&](core::FlagParser& p) { cli.flags.add_all(p); },
                    {core::kCaptureHelp, core::kResilienceHelp, core::kCheckpointHelp});
    return cli;
  }

  /// Runs a whole campaign through the engine (and the checkpoint session,
  /// if any). `on_result` fires on this thread in strict config order at
  /// every --jobs value, right after the result's capture files are
  /// written, so tables, artifacts and stdout bytes match a serial run.
  void run_all(const std::vector<core::ExperimentConfig>& configs,
               const std::function<void(std::size_t, const core::ExperimentResult&)>& on_result)
      const {
    (void)driver_->run(configs, [&](std::size_t i, core::ExperimentResult& r) {
      core::export_capture(r, flags, wrote_to_stderr);
      on_result(i, r);
    });
  }
};

/// Ordered batched campaign builder.
///
/// A bench queues every experiment up front, pairing each config with a
/// continuation, plus plain actions (table emission) slotted between them.
/// run() executes the whole batch through Cli::run_all — parallel under
/// --jobs N — and invokes continuations and actions on the calling thread
/// in exactly the order they were added, so a bench's stdout and artifacts
/// are byte-identical to the old run-one-print-one loop at any job count.
class Campaign {
 public:
  explicit Campaign(const Cli& cli) : cli_{cli} {}

  /// Queues one experiment; `use` runs (in add order) once its result and
  /// every earlier step are done.
  void add(core::ExperimentConfig cfg,
           std::function<void(const core::ExperimentResult&)> use) {
    configs_.push_back(std::move(cfg));
    uses_.push_back(std::move(use));
  }

  /// Queues an action ordered after everything added so far.
  void then(std::function<void()> action) {
    after_.resize(configs_.size() + 1);
    after_.back().push_back(std::move(action));
  }

  void run() {
    after_.resize(configs_.size() + 1);
    auto run_after = [&](std::size_t done) {
      for (const auto& action : after_[done]) {
        action();
      }
    };
    run_after(0);  // actions queued before any experiment
    cli_.run_all(configs_, [&](std::size_t i, const core::ExperimentResult& r) {
      uses_[i](r);
      run_after(i + 1);
    });
  }

 private:
  const Cli& cli_;
  std::vector<core::ExperimentConfig> configs_;
  std::vector<std::function<void(const core::ExperimentResult&)>> uses_;
  /// after_[k]: actions queued once k experiments had been added.
  std::vector<std::vector<std::function<void()>>> after_;
};

inline void emit(const core::Table& table, const SweepCli& cli, const std::string& title) {
  core::print_banner(std::cout, title);
  table.print(std::cout);
  if (cli.csv) {
    std::cout << "--- csv ---\n";
    table.write_csv(std::cout);
  }
  cli.record_figure(table, title);
  std::cout.flush();
}

/// Builds the experiment config for one Table II row under a GPU config.
inline core::ExperimentConfig experiment_for(const core::paper::TableIIRow& row,
                                             const std::string& gpu_cfg) {
  core::ExperimentConfig cfg;
  cfg.platform = row.platform;
  cfg.op = row.op;
  cfg.precision = row.precision;
  cfg.n = row.n;
  cfg.nb = row.nb;
  cfg.gpu_config = power::GpuConfig::parse(gpu_cfg);
  return cfg;
}

/// Same, with the CLI's fault-injection/resilience knobs applied.
inline core::ExperimentConfig experiment_for(const core::paper::TableIIRow& row,
                                             const std::string& gpu_cfg, const Cli& cli) {
  core::ExperimentConfig cfg = experiment_for(row, gpu_cfg);
  cfg.resilience = cli.flags.resilience;
  return cfg;
}

}  // namespace greencap::bench
