// Shared driver for Figures 3 and 4: the full GPU-power-configuration
// ladder on all three platforms for both task-based operations, reporting
// the same three series as the paper — % performance change, % energy
// change (positive = savings) and energy efficiency in Gflop/s/W.
//
// The whole figure is built as one campaign (baselines first within each
// platform/op group, then the non-default ladder entries) and handed to
// Cli::run_all, so --jobs N parallelizes across every run of the figure
// while each group's table still assembles and emits in the serial order.
#pragma once

#include "harness.hpp"
#include "hw/presets.hpp"

namespace greencap::bench {

inline void run_config_figure(const Cli& cli, hw::Precision precision, const char* figure_name) {
  struct Group {
    std::string title;
    std::vector<power::GpuConfig> ladder;
    /// Arrival order: baseline first, then non-default ladder entries.
    std::vector<core::ExperimentResult> results;
    std::size_t expected = 0;
  };
  std::vector<Group> groups;
  std::vector<core::ExperimentConfig> configs;
  std::vector<std::size_t> config_group;

  for (const std::string platform :
       {"32-AMD-4-A100", "64-AMD-2-A100", "24-Intel-2-V100"}) {
    for (const core::Operation op : {core::Operation::kGemm, core::Operation::kPotrf}) {
      const auto row = core::paper::table_ii_row(platform, op, precision);
      const std::size_t gpus = hw::presets::platform_by_name(platform).gpus.size();

      Group group;
      group.title = std::string(figure_name) + " — " + platform + " " + core::to_string(op) +
                    " (" + hw::to_string(precision) + ", N=" + std::to_string(row.n) +
                    ", Nt=" + std::to_string(row.nb) + ")";

      core::ExperimentConfig base_cfg = experiment_for(
          row, power::GpuConfig::uniform(gpus, power::Level::kHigh).to_string(), cli);
      if (groups.empty()) {
        base_cfg.obs = cli.flags.observability();  // the campaign's one capture
      }
      configs.push_back(std::move(base_cfg));
      config_group.push_back(groups.size());
      group.expected = 1;

      for (const auto& cfg : power::standard_ladder(gpus)) {
        group.ladder.push_back(cfg);
        if (!cfg.is_default()) {
          configs.push_back(experiment_for(row, cfg.to_string(), cli));
          config_group.push_back(groups.size());
          ++group.expected;
        }
      }
      groups.push_back(std::move(group));
    }
  }

  cli.run_all(configs, [&](std::size_t index, const core::ExperimentResult& result) {
    Group& group = groups[config_group[index]];
    group.results.push_back(result);
    if (group.results.size() != group.expected) {
      return;
    }
    // Group complete: the default ladder entry reuses the baseline, every
    // other entry consumes the next result in submission order.
    const core::ExperimentResult& baseline = group.results.front();
    core::Table table{{"config", "perf delta %", "energy delta %", "efficiency Gf/s/W",
                       "Gflop/s", "energy J", "time s", "cpu tasks"}};
    std::size_t next = 1;
    for (const auto& cfg : group.ladder) {
      const core::ExperimentResult& r =
          cfg.is_default() ? baseline : group.results[next++];
      table.add_row({cfg.to_string(), core::fmt_pct(r.perf_delta_pct(baseline)),
                     core::fmt_pct(r.energy_saving_pct(baseline)),
                     core::fmt(r.efficiency_gflops_per_w, 2), core::fmt(r.gflops, 0),
                     core::fmt(r.total_energy_j, 0), core::fmt(r.time_s, 2),
                     std::to_string(r.cpu_tasks)});
    }
    emit(table, cli, group.title);
  });
}

}  // namespace greencap::bench
