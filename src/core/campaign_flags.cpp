#include "core/campaign_flags.hpp"

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>

#include "fault/fault_plan.hpp"
#include "hw/presets.hpp"
#include "obs/artifact.hpp"
#include "obs/trace_export.hpp"
#include "prof/html_report.hpp"
#include "prof/profile.hpp"
#include "rt/scheduler.hpp"

namespace greencap::core {

namespace {

bool checkpointing(const CheckpointOptions& ckpt) {
  return !ckpt.path.empty() || !ckpt.resume_path.empty() || ckpt.every_ms > 0.0 ||
         ckpt.watchdog_ms > 0.0;
}

}  // namespace

void CampaignFlags::add_jobs(FlagParser& parser) { parser.i32("--jobs", &jobs); }

void CampaignFlags::add_all(FlagParser& parser) {
  add_jobs(parser);
  parser.str("--trace-json", &trace_json);
  parser.str("--metrics-json", &metrics_json);
  parser.str("--profile-json", &profile_json);
  parser.str("--profile-html", &profile_html);
  parser.f64("--telemetry-period-ms", &telemetry_period_ms);
  parser.str("--faults", &resilience.faults);
  parser.u64("--fault-seed", &resilience.fault_seed);
  parser.f64("--reconcile-ms", &resilience.reconcile_ms);
  parser.flag("--degrade", &resilience.degrade);
  parser.i32("--cap-retries", &resilience.max_cap_retries);
  parser.str("--checkpoint", &ckpt.path);
  parser.f64("--checkpoint-every-ms", &ckpt.every_ms);
  parser.f64("--watchdog-ms", &ckpt.watchdog_ms);
  parser.str("--resume", &ckpt.resume_path);
  parser.i32("--ckpt-kill-after", &ckpt.kill_after);
}

std::string CampaignFlags::parse(const FlagParser& parser, int argc, char* const* argv) const {
  if (std::string err = parser.parse(argc, argv); !err.empty()) {
    return err;
  }
  if (jobs < 0) {
    return "--jobs expects a non-negative value, got " + std::to_string(jobs);
  }
  // Negative periods, budgets and kill points have no meaning; NaN fails
  // the comparison too.
  const std::pair<const char*, double> non_negative[] = {
      {"--telemetry-period-ms", telemetry_period_ms},
      {"--cap-retries", resilience.max_cap_retries},
      {"--reconcile-ms", resilience.reconcile_ms},
      {"--checkpoint-every-ms", ckpt.every_ms},
      {"--watchdog-ms", ckpt.watchdog_ms},
      {"--ckpt-kill-after", ckpt.kill_after},
  };
  for (const auto& [flag, value] : non_negative) {
    if (!(value >= 0.0)) {
      std::ostringstream got;
      got << value;
      return std::string{flag} + " expects a non-negative value, got " + got.str();
    }
  }
  if (!ckpt.resume_path.empty() && !std::filesystem::is_regular_file(ckpt.resume_path)) {
    return "--resume expects a checkpoint file, got '" + ckpt.resume_path +
           "' (missing or not a regular file)";
  }
  if (checkpointing(ckpt) && jobs != 1) {
    // A session replays a strictly serial campaign prefix and commits each
    // run after its artifacts; refuse loudly instead of degrading.
    return "--checkpoint/--resume/--checkpoint-every-ms/--watchdog-ms require --jobs 1 "
           "(checkpoint sessions are serial); drop --jobs or the checkpoint flags";
  }
  return {};
}

std::string check_configs(const std::vector<ExperimentConfig>& configs) {
  for (const ExperimentConfig& cfg : configs) {
    try {
      (void)rt::make_scheduler(cfg.scheduler);
    } catch (const std::invalid_argument& e) {
      return std::string{"flag '--scheduler' "} + e.what();
    }
    if (cfg.n <= 0 || cfg.nb <= 0 || cfg.n % cfg.nb != 0) {
      return "flag '--n' expects a positive multiple of --nb " + std::to_string(cfg.nb) +
             ", got " + std::to_string(cfg.n);
    }
    const hw::PlatformSpec platform = hw::presets::platform_by_name(cfg.platform);
    if (cfg.cpu_cap && cfg.cpu_cap->package >= platform.cpus.size()) {
      return "flag '--cpu-cap' expects a package below " + std::to_string(platform.cpus.size()) +
             " on " + cfg.platform + ", got " + std::to_string(cfg.cpu_cap->package);
    }
    if (cfg.resilience.faults.empty()) {
      continue;
    }
    try {
      const fault::FaultPlan plan = fault::FaultPlan::parse(cfg.resilience.faults);
      for (const fault::FaultEvent& e : plan.events()) {
        if (e.gpu >= 0 && static_cast<std::size_t>(e.gpu) >= platform.gpus.size()) {
          return "flag '--faults' event '" + e.to_string() + "' targets gpu" +
                 std::to_string(e.gpu) + ", but " + cfg.platform + " has " +
                 std::to_string(platform.gpus.size()) + " GPUs";
        }
      }
    } catch (const std::invalid_argument& e) {
      return std::string{"flag '--faults' "} + e.what();
    }
  }
  return {};
}

ObservabilityOptions CampaignFlags::observability(bool more_telemetry) const {
  ObservabilityOptions o;
  o.trace = !trace_json.empty();
  o.metrics = !metrics_json.empty();
  o.profile = !profile_json.empty() || !profile_html.empty();
  if (telemetry_period_ms > 0.0) {
    o.telemetry_period_ms = telemetry_period_ms;
  } else if (o.trace || o.profile || more_telemetry) {
    o.telemetry_period_ms = 10.0;
  }
  return o;
}

void export_artifact(const std::string& path, const char* what,
                     const std::function<void(std::ostream&)>& writer, const WroteHook& wrote) {
  if (path.empty()) {
    return;
  }
  if (!obs::write_artifact(path, what, writer)) {
    std::exit(1);
  }
  wrote(what, path);
}

void export_capture(const ExperimentResult& result, const CampaignFlags& flags,
                    const WroteHook& wrote,
                    const std::function<void(const ObservabilityData&)>& between) {
  if (result.observability == nullptr) {
    return;
  }
  const ObservabilityData& data = *result.observability;
  export_artifact(
      flags.trace_json, "trace",
      [&](std::ostream& os) {
        obs::ChromeTraceOptions opts;
        opts.telemetry = &data.telemetry;
        opts.worker_names = data.worker_names;
        obs::write_chrome_trace(os, data.trace, opts);
      },
      wrote);
  export_artifact(
      flags.metrics_json, "metrics", [&](std::ostream& os) { data.metrics.write_json(os); },
      wrote);
  if (between) {
    between(data);
  }
  if (flags.profile_json.empty() && flags.profile_html.empty()) {
    return;
  }
  prof::AnalyzeOptions popts;
  popts.decisions = &data.decisions;
  popts.telemetry = &data.telemetry;
  const prof::Profile profile = prof::analyze(data.capture, popts);
  export_artifact(
      flags.profile_json, "profile", [&](std::ostream& os) { profile.write_json(os); }, wrote);
  export_artifact(
      flags.profile_html, "report", [&](std::ostream& os) { prof::write_html_report(os, profile); },
      wrote);
}

CampaignDriver::CampaignDriver(const CampaignFlags& flags) : engine_{EngineOptions{flags.jobs}} {
  if (checkpointing(flags.ckpt)) {
    ckpt::install_signal_handlers();
    session_ = std::make_unique<CheckpointSession>(flags.ckpt);
  }
}

}  // namespace greencap::core
