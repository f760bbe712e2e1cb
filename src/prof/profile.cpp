#include "prof/profile.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "obs/decision_log.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace greencap::prof {

namespace {

void summarize_decisions(const obs::DecisionLog& log, Profile& profile) {
  for (const obs::ModelAccuracy& acc : log.accuracy_report()) {
    ModelAccuracyRow row;
    row.codelet = acc.codelet;
    row.arch = acc.arch;
    row.samples = acc.samples;
    row.mean_rel_error = acc.mean_rel_error;
    profile.model_accuracy.push_back(std::move(row));
  }
}

void summarize_telemetry(const obs::TelemetrySeries& series, Profile& profile) {
  // Peak instantaneous node draw: max over samples of the sum of every
  // *.power_w channel.
  std::vector<std::size_t> power_channels;
  const auto& channels = series.channels();
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const std::string& name = channels[c].name;
    if (name.size() > 8 && name.compare(name.size() - 8, 8, ".power_w") == 0) {
      power_channels.push_back(c);
    }
  }
  for (const obs::TelemetrySample& sample : series.samples()) {
    double node = 0.0;
    for (const std::size_t c : power_channels) {
      node += sample.values[c];
    }
    profile.peak_node_power_w = std::max(profile.peak_node_power_w, node);
  }
}

void write_device_json(obs::JsonWriter& w, const DeviceRecord& dev, const DeviceAttribution& att) {
  w.raw("{\"kind\":").str(to_string(dev.kind)).raw(",\"index\":").integer(dev.index);
  w.raw(",\"name\":").str(dev.name).raw(",\"level\":").str({&dev.level, 1});
  w.raw(",\"cap_w\":").number_exact(dev.cap_w).raw(",\"static_w\":").number_exact(dev.static_w);
  w.raw(",\"metered_j\":").number_exact(dev.metered_j);
  w.raw(",\"tasks_j\":").number_exact(att.tasks_j);
  w.raw(",\"static_j\":").number_exact(att.static_j);
  w.raw(",\"residual_j\":").number_exact(att.residual_j);
  w.raw(",\"busy_s\":").number_exact(att.busy_s).raw(",\"idle_s\":").number_exact(att.idle_s);
  w.raw(",\"task_count\":").integer(att.task_count).raw(",\"rate_scale\":{\"H\":");
  w.number_exact(dev.rate_scale_h).raw(",\"B\":").number_exact(dev.rate_scale_b);
  w.raw(",\"L\":").number_exact(dev.rate_scale_l).raw("}}");
}

}  // namespace

void Profile::write_json(std::ostream& os) const {
  obs::JsonWriter w{os};
  write_json(w);
}

// profile.json readers re-verify the conservation identity from the
// serialized numbers, so every double goes out at round-trip precision.
void Profile::write_json(obs::JsonWriter& w) const {
  w.raw("{\"schema_version\":1,\n\"run\":{");
  w.raw("\"platform\":").str(capture.platform).raw(",\"operation\":").str(capture.operation);
  w.raw(",\"precision\":").str(capture.precision).raw(",\"n\":").integer(capture.n);
  w.raw(",\"nb\":").integer(capture.nb).raw(",\"gpu_config\":").str(capture.gpu_config);
  w.raw(",\"scheduler\":").str(capture.scheduler);
  w.raw(",\"window\":{\"begin_s\":").number_exact(capture.t_begin_s);
  w.raw(",\"end_s\":").number_exact(capture.t_end_s).raw('}');
  w.raw(",\"makespan_s\":").number_exact(capture.makespan_s);
  w.raw(",\"total_flops\":").number_exact(capture.total_flops);
  w.raw(",\"metrics\":{\"time_s\":").number_exact(metrics.time_s);
  w.raw(",\"energy_j\":").number_exact(metrics.energy_j);
  w.raw(",\"gflops\":").number_exact(metrics.gflops);
  w.raw(",\"gflops_per_w\":").number_exact(metrics.gflops_per_w);
  w.raw(",\"edp_js\":").number_exact(metrics.edp_js);
  w.raw(",\"eds_js2\":").number_exact(metrics.eds_js2).raw("}}");

  // -- attribution ----------------------------------------------------------
  w.raw(",\n\"attribution\":{\"total_metered_j\":").number_exact(attribution.total_metered_j);
  w.raw(",\"total_tasks_j\":").number_exact(attribution.total_tasks_j);
  w.raw(",\"total_static_j\":").number_exact(attribution.total_static_j);
  w.raw(",\"total_residual_j\":").number_exact(attribution.total_residual_j).raw('}');

  w.raw(",\n\"devices\":[");
  for (std::size_t d = 0; d < capture.devices.size(); ++d) {
    write_device_json(w.raw(d != 0 ? "," : ""), capture.devices[d], attribution.devices[d]);
  }
  w.raw(']');

  // -- workers --------------------------------------------------------------
  w.raw(",\n\"workers\":[");
  for (std::size_t i = 0; i < capture.workers.size(); ++i) {
    const WorkerRecord& wr = capture.workers[i];
    const WorkerBreakdown& b = critical_path.workers[i];
    w.raw(i != 0 ? ",{\"id\":" : "{\"id\":").integer(wr.id).raw(",\"name\":").str(wr.name);
    w.raw(",\"arch\":").str(wr.is_cuda ? "cuda" : "cpu");
    w.raw(",\"device\":{\"kind\":").str(to_string(wr.device_kind));
    w.raw(",\"index\":").integer(wr.device_index).raw("},\"tasks\":").integer(b.tasks);
    w.raw(",\"busy_s\":").number_exact(b.busy_s);
    w.raw(",\"transfer_wait_s\":").number_exact(b.transfer_wait_s);
    w.raw(",\"starvation_s\":").number_exact(b.starvation_s);
    w.raw(",\"flops\":").number_exact(b.flops).raw(",\"energy_j\":").number_exact(b.energy_j);
    w.raw('}');
  }
  w.raw(']');

  // -- tasks ----------------------------------------------------------------
  w.raw(",\n\"tasks\":[");
  for (std::size_t i = 0; i < capture.tasks.size(); ++i) {
    const TaskRecord& t = capture.tasks[i];
    w.raw(i != 0 ? ",{\"id\":" : "{\"id\":").integer(t.id).raw(",\"label\":").str(t.label);
    w.raw(",\"codelet\":").str(t.codelet).raw(",\"worker\":").integer(t.worker);
    w.raw(",\"start_s\":").number_exact(t.start_s).raw(",\"end_s\":").number_exact(t.end_s);
    w.raw(",\"flops\":").number_exact(t.flops);
    w.raw(",\"energy_j\":").number_exact(attribution.task_energy_j[i]);
    w.raw(",\"slack_s\":").number_exact(critical_path.slack_s[i]).raw('}');
  }
  w.raw(']');

  // -- critical paths -------------------------------------------------------
  w.raw(",\n\"critical_path\":{\"time\":{\"length_s\":").number_exact(critical_path.length_s);
  w.raw(",\"exec_s\":").number_exact(critical_path.exec_s);
  w.raw(",\"transfer_wait_s\":").number_exact(critical_path.transfer_wait_s);
  w.raw(",\"other_wait_s\":").number_exact(critical_path.other_wait_s).raw(",\"steps\":[");
  for (std::size_t i = 0; i < critical_path.time_path.size(); ++i) {
    const PathStep& step = critical_path.time_path[i];
    w.raw(i != 0 ? ",{\"task\":" : "{\"task\":").integer(step.task);
    w.raw(",\"link\":").str(to_string(step.link)).raw(",\"gap_s\":").number_exact(step.gap_s);
    w.raw(",\"transfer_wait_s\":").number_exact(step.transfer_wait_s).raw('}');
  }
  w.raw("]},\"energy\":{\"joules\":").number_exact(critical_path.energy_path_j);
  w.raw(",\"tasks\":[");
  for (std::size_t i = 0; i < critical_path.energy_path.size(); ++i) {
    w.raw(i != 0 ? "," : "").integer(critical_path.energy_path[i]);
  }
  w.raw("]}}");

  // -- efficiency table -----------------------------------------------------
  w.raw(",\n\"efficiency\":[");
  for (std::size_t i = 0; i < efficiency.size(); ++i) {
    const EfficiencyCell& cell = efficiency[i];
    w.raw(i != 0 ? ",{\"codelet\":" : "{\"codelet\":").str(cell.codelet);
    w.raw(",\"device\":{\"kind\":").str(to_string(cell.kind));
    w.raw(",\"index\":").integer(cell.device_index).raw('}');
    w.raw(",\"level\":").str({&cell.level, 1});
    w.raw(",\"cap_w\":").number_exact(cell.cap_w).raw(",\"tasks\":").integer(cell.tasks);
    w.raw(",\"flops\":").number_exact(cell.flops).raw(",\"exec_s\":").number_exact(cell.exec_s);
    w.raw(",\"energy_j\":").number_exact(cell.energy_j);
    w.raw(",\"gflops\":").number_exact(cell.gflops());
    w.raw(",\"gflops_per_w\":").number_exact(cell.gflops_per_w());
    w.raw(",\"j_per_task\":").number_exact(cell.j_per_task());
    w.raw(",\"edp_js\":").number_exact(cell.edp_js()).raw('}');
  }
  w.raw(']');

  // -- what-if --------------------------------------------------------------
  w.raw(",\n\"whatif\":[");
  for (std::size_t i = 0; i < whatif.size(); ++i) {
    const WhatIfEntry& entry = whatif[i];
    w.raw(i != 0 ? ",{\"config\":" : "{\"config\":").str(entry.config);
    w.raw(",\"lower_bound_s\":").number_exact(entry.lower_bound_s);
    w.raw(",\"dag_bound_s\":").number_exact(entry.dag_bound_s);
    w.raw(",\"work_bound_s\":").number_exact(entry.work_bound_s);
    w.raw(",\"vs_measured\":").number_exact(entry.vs_measured).raw('}');
  }
  w.raw(']');

  // -- optional PR 1 enrichments -------------------------------------------
  w.raw(",\n\"model_accuracy\":[");
  for (std::size_t i = 0; i < model_accuracy.size(); ++i) {
    const ModelAccuracyRow& row = model_accuracy[i];
    w.raw(i != 0 ? ",{\"codelet\":" : "{\"codelet\":").str(row.codelet);
    w.raw(",\"arch\":").str(row.arch).raw(",\"samples\":").integer(row.samples);
    w.raw(",\"mean_rel_error\":").number_exact(row.mean_rel_error).raw('}');
  }
  w.raw("],\"peak_node_power_w\":").number_exact(peak_node_power_w).raw("}\n");
}

Profile analyze(const RunCapture& capture, const AnalyzeOptions& options) {
  Profile profile;
  profile.capture = capture;
  profile.metrics = run_metrics(capture);
  profile.attribution = attribute_energy(capture);
  profile.critical_path = analyze_critical_path(capture, profile.attribution.task_energy_j);
  profile.efficiency = efficiency_table(capture, profile.attribution.task_energy_j);
  profile.whatif = whatif_ladder(capture);
  if (options.decisions != nullptr && !options.decisions->empty()) {
    summarize_decisions(*options.decisions, profile);
  }
  if (options.telemetry != nullptr && !options.telemetry->empty()) {
    summarize_telemetry(*options.telemetry, profile);
  }
  return profile;
}

}  // namespace greencap::prof
