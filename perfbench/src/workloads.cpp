#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/paper_params.hpp"
#include "core/run_context.hpp"
#include "hw/presets.hpp"
#include "obs/trace_export.hpp"
#include "power/config.hpp"
#include "spans.hpp"
#include "stream.hpp"

namespace perfbench {

namespace core = greencap::core;
namespace fs = std::filesystem;
namespace hw = greencap::hw;
namespace obs = greencap::obs;
namespace power = greencap::power;
namespace prof = greencap::prof;

namespace {

constexpr const char* kResilientFaults =
    "capfail@gpu1:count=2;straggler@gpu3:t=1,until=4,factor=2.5;"
    "drift@gpu0:t=2,watts=250;dropout@gpu2:t=5";

/// The paper's Fig. 3 protocol: every double-precision Table II row at the
/// paper's N and Nt, under its platform's standard H/B/L ladder.
std::vector<core::ExperimentConfig> paper_fig3_configs() {
  std::vector<core::ExperimentConfig> configs;
  for (const core::paper::TableIIRow& row : core::paper::table_ii()) {
    if (row.precision != hw::Precision::kDouble) {
      continue;
    }
    const std::size_t gpus = hw::presets::platform_by_name(row.platform).gpus.size();
    for (const power::GpuConfig& caps : power::standard_ladder(gpus)) {
      core::ExperimentConfig cfg;
      cfg.platform = row.platform;
      cfg.op = row.op;
      cfg.precision = row.precision;
      cfg.n = row.n;
      cfg.nb = row.nb;
      cfg.gpu_config = caps;
      configs.push_back(std::move(cfg));
    }
  }
  return configs;
}

/// 40x40-tile POTRF on 32-AMD-4-A100 under HHBB, with a fault plan that
/// forces cap-write retries, a straggler window, a drift the reconciliation
/// loop re-asserts and a GPU dropout, and with every capture switched on.
core::ExperimentConfig resilient_config() {
  const core::paper::TableIIRow row =
      core::paper::table_ii_row("32-AMD-4-A100", core::Operation::kPotrf, hw::Precision::kDouble);
  core::ExperimentConfig cfg;
  cfg.platform = row.platform;
  cfg.op = row.op;
  cfg.precision = row.precision;
  cfg.nb = row.nb;
  cfg.n = 40 * static_cast<std::int64_t>(row.nb);
  cfg.gpu_config = power::GpuConfig::parse("HHBB");
  cfg.resilience.faults = kResilientFaults;
  cfg.resilience.degrade = true;
  cfg.resilience.reconcile_ms = 500.0;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  cfg.obs.decision_log = true;
  cfg.obs.telemetry_period_ms = 10.0;
  cfg.obs.profile = true;
  return cfg;
}

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

std::uint64_t write_file(const fs::path& path, const std::function<void(std::ostream&)>& body) {
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    body(out);
    out.flush();
    if (!out) {
      throw std::runtime_error("cannot write " + path.string());
    }
  }
  return fs::file_size(path);
}

/// Gflop/s/W, computed the way the library's ExperimentResult does.
double efficiency(const core::ExperimentConfig& cfg, const RunDigest& d) {
  return core::operation_flops(cfg.op, static_cast<double>(cfg.n)) / d.total_energy_j / 1e9;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w :
       {Workload::kPaperFig3, Workload::kAdvisorSweep, Workload::kResilientObserved}) {
    if (name == workload_name(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kPaperFig3: return "paper-fig3";
    case Workload::kAdvisorSweep: return "advisor-sweep";
    case Workload::kResilientObserved: return "resilient-observed";
  }
  return "?";
}

Inputs set_up(Workload workload, std::uint64_t seed, const fs::path& reference_file,
              const fs::path& scratch, bool writing_reference) {
  Inputs in;
  in.workload = workload;
  in.scratch = scratch;
  switch (workload) {
    case Workload::kPaperFig3:
      in.configs = paper_fig3_configs();
      shuffle(in.configs, seed);  // the seed only orders the runs
      break;
    case Workload::kAdvisorSweep:
      in.configs = advisor_stream(seed);
      in.jobs = 2;
      break;
    case Workload::kResilientObserved:
      in.configs.assign(kResilientRunsPerPass, resilient_config());
      in.shared_cache = false;  // faulted runs bypass the cache in the library too
      fs::create_directories(scratch);
      break;
  }
  if (!writing_reference) {
    in.reference = load_reference(reference_file.string());
    in.reference_required = workload != Workload::kAdvisorSweep || seed == kDefaultSeed;
  }
  return in;
}

core::CheckpointOptions checkpoint_options(const Inputs& inputs, const char* file) {
  core::CheckpointOptions options;
  options.path = (inputs.scratch / file).string();
  options.every_ms = kCheckpointEveryMs;
  return options;
}

PassResult run_pass(const Inputs& inputs) {
  const std::size_t n = inputs.configs.size();
  PassResult pass;
  pass.run_ms.assign(n, 0.0);
  pass.digests.resize(n);
  core::EngineOptions options;
  options.jobs = inputs.jobs;
  core::CampaignEngine engine{options};

  const std::int64_t start = now_ns();
  switch (inputs.workload) {
    case Workload::kPaperFig3: {
      // Serial engine: each result is emitted right after its run, so the
      // time between emissions is the run's wall time.
      std::int64_t last = start;
      (void)engine.run(inputs.configs, [&](std::size_t i, core::ExperimentResult& result) {
        const std::int64_t now = now_ns();
        pass.run_ms[i] = ms_between(last, now);
        last = now;
        pass.digests[i] = digest_of(result);
      });
      break;
    }
    case Workload::kAdvisorSweep: {
      core::RunServices services;
      services.calibration = &engine.cache();
      engine.for_each_index(n, [&](std::size_t i) {
        const std::int64_t t0 = now_ns();
        const core::ExperimentResult result = core::run_experiment(inputs.configs[i], services);
        pass.run_ms[i] = ms_between(t0, now_ns());
        pass.digests[i] = digest_of(result);
      });
      break;
    }
    case Workload::kResilientObserved:
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t t0 = now_ns();
        core::CheckpointSession session{checkpoint_options(inputs, "run.gckp")};
        const core::ExperimentResult result = core::run_experiment(inputs.configs[i], &session);
        if (result.observability == nullptr) {
          throw std::logic_error("resilient-observed run captured no observability data");
        }
        const core::ObservabilityData& data = *result.observability;
        (void)export_trace(data, inputs.scratch);
        (void)export_metrics(data, inputs.scratch);
        (void)export_profile(analyze_profile(data), inputs.scratch);
        pass.run_ms[i] = ms_between(t0, now_ns());
        pass.digests[i] = digest_of(result);
      }
      break;
  }
  pass.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  pass.cache_hits = engine.cache().hits();
  pass.cache_misses = engine.cache().misses();
  return pass;
}

std::uint64_t export_trace(const core::ObservabilityData& data, const fs::path& dir) {
  return write_file(dir / "trace.json", [&](std::ostream& os) {
    obs::ChromeTraceOptions options;
    options.telemetry = &data.telemetry;
    options.worker_names = data.worker_names;
    obs::write_chrome_trace(os, data.trace, options);
  });
}

std::uint64_t export_metrics(const core::ObservabilityData& data, const fs::path& dir) {
  return write_file(dir / "metrics.json", [&](std::ostream& os) { data.metrics.write_json(os); });
}

std::uint64_t export_profile(const prof::Profile& profile, const fs::path& dir) {
  return write_file(dir / "profile.json", [&](std::ostream& os) { profile.write_json(os); });
}

prof::Profile analyze_profile(const core::ObservabilityData& data) {
  prof::AnalyzeOptions options;
  options.decisions = &data.decisions;
  options.telemetry = &data.telemetry;
  return prof::analyze(data.capture, options);
}

void Checker::report(const std::string& message) {
  if (++reported_ <= 10) {
    std::cerr << "perfbench: check failed: " << message << "\n";
  }
}

std::size_t Checker::check_pass(const std::vector<RunDigest>& digests) {
  const std::vector<core::ExperimentConfig>& configs = inputs_.configs;
  std::vector<bool> bad(digests.size(), false);
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const std::string key = configs[i].describe();
    const std::string why =
        check_reference(inputs_.reference, key, digests[i], inputs_.reference_required);
    if (!why.empty()) {
      report("reference " + why);
      bad[i] = true;
    }
    const auto [first, inserted] = first_seen_.emplace(key, digests[i]);
    if (!inserted && !same_bits(first->second, digests[i])) {
      report("repeat of '" + key + "' gave " + format_digest(digests[i]) + ", first run gave " +
             format_digest(first->second));
      bad[i] = true;
    }
  }
  if (inputs_.workload == Workload::kPaperFig3) {
    for (const core::Operation op : {core::Operation::kGemm, core::Operation::kPotrf}) {
      std::optional<std::size_t> best;
      std::optional<std::size_t> high;
      for (std::size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].platform != "32-AMD-4-A100" || configs[i].op != op) {
          continue;
        }
        const std::string caps = configs[i].gpu_config.to_string();
        if (caps == "BBBB") {
          best = i;
        } else if (caps == "HHHH") {
          high = i;
        }
      }
      if (!best || !high) {
        throw std::logic_error("paper-fig3 lacks the BBBB/HHHH anchor runs");
      }
      const double eff_best = efficiency(configs[*best], digests[*best]);
      const double eff_high = efficiency(configs[*high], digests[*high]);
      if (!(eff_best > eff_high)) {
        report(std::string{"anchor: 32-AMD-4-A100 "} + core::to_string(op) + " BBBB " +
               std::to_string(eff_best) + " Gflop/s/W does not beat HHHH " +
               std::to_string(eff_high));
        bad[*best] = true;
        bad[*high] = true;
      }
    }
  }
  return static_cast<std::size_t>(std::count(bad.begin(), bad.end(), true));
}

std::size_t Checker::check_replay(const std::vector<RunDigest>& untraced,
                                  const std::vector<RunDigest>& traced) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    if (i < traced.size() && same_bits(untraced[i], traced[i])) {
      continue;
    }
    report("traced replay of '" + inputs_.configs[i].describe() + "' gave " +
           (i < traced.size() ? format_digest(traced[i]) : std::string{"nothing"}) +
           ", untraced run gave " + format_digest(untraced[i]));
    ++failed;
  }
  return failed;
}

std::size_t Checker::fail_pass(const std::string& what) {
  report(what);
  return inputs_.configs.size();
}

}  // namespace perfbench
