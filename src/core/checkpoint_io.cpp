#include "core/checkpoint_io.hpp"

#include <utility>
#include <vector>

#include "fault/injector.hpp"

namespace greencap::core::ckpt_io {

namespace ck = greencap::ckpt;

namespace {

// Each record's layout, once: run by ck::Writer to encode (T const) and by
// ck::Reader to decode (see ckpt/serial.hpp).

template <typename C, typename T>
void io_energy_reading(C& c, T& e) {
  c.seq(e.cpu_joules, 8);
  c.seq(e.gpu_joules, 8);
}

template <typename C, typename T>
void io_config(C& c, T& cfg) {
  c.tag("CFG1");
  c.io(cfg.platform);
  c.io(cfg.op, Operation::kGelqf, "checkpoint has a config of unknown operation");
  c.io(cfg.precision, hw::Precision::kDouble, "checkpoint has a config of unknown precision");
  c.io(cfg.n);
  c.io(cfg.nb);
  auto levels = cfg.gpu_config.levels();
  c.seq(levels, 1, [&c](auto& level) {
    c.io(level, power::Level::kHigh, "checkpoint has a config of unknown GPU level");
  });
  bool cpu_cap = cfg.cpu_cap.has_value();
  c.io(cpu_cap);
  if constexpr (C::kReading) {
    cfg.gpu_config = power::GpuConfig{std::move(levels)};
    if (cpu_cap) cfg.cpu_cap.emplace();
  }
  if (cpu_cap) {
    c.io(cfg.cpu_cap->package);
    c.io(cfg.cpu_cap->fraction_of_tdp);
  }
  c.io(cfg.scheduler);
  c.io(cfg.seed);
  c.io(cfg.recalibrate);
  c.io(cfg.stale_models);
  c.io(cfg.execute_kernels);
  c.io(cfg.obs.trace);
  c.io(cfg.obs.metrics);
  c.io(cfg.obs.decision_log);
  c.io(cfg.obs.telemetry_period_ms);
  c.io(cfg.obs.profile);
  c.io(cfg.resilience.faults);
  c.io(cfg.resilience.fault_seed);
  c.io(cfg.resilience.reconcile_ms);
  c.io(cfg.resilience.degrade);
  c.io(cfg.resilience.max_cap_retries);
}

template <typename C, typename Report>
void io_degradation(C& c, Report& report) {
  auto event = [&c](auto& e) {
    c.io(e.component);
    c.io(e.detail);
    c.io(e.from);
    c.io(e.to);
    c.io(e.reason);
    c.io(e.at_s);
  };
  constexpr std::size_t kMinEventBytes = 8 * 5 + 8;
  if constexpr (C::kReading) {
    std::vector<fault::DegradationEvent> events;
    c.seq(events, kMinEventBytes, event);
    for (fault::DegradationEvent& e : events) report.add(std::move(e));
  } else {
    c.seq(report.events(), kMinEventBytes, event);
  }
}

template <typename C, typename T>
void io_result(C& c, T& res) {
  c.tag("RES1");
  io_config(c, res.config);
  c.io(res.time_s);
  c.io(res.gflops);
  c.io(res.total_energy_j);
  c.io(res.efficiency_gflops_per_w);
  io_energy_reading(c, res.energy);
  c.io(res.stats.tasks_submitted);
  c.io(res.stats.tasks_completed);
  c.io(res.stats.dependency_edges);
  c.io(res.stats.makespan);
  c.io(res.stats.total_bytes_transferred);
  c.seq(res.stats.per_worker, 8, [&c](auto& pw) {
    c.io(pw.id);
    c.io(pw.arch, rt::WorkerArch::kCuda, "checkpoint has a result of unknown worker arch");
    c.io(pw.tasks);
    c.io(pw.busy_fraction);
  });
  c.io(res.cpu_tasks);
  c.io(res.gpu_tasks);
  // Whether the run captured observability; a decoded result has none (its
  // artifacts were exported before its commit).
  bool had_observability = res.observability != nullptr;
  c.io(had_observability);
  io_degradation(c, res.degradation);
  fault::FaultInjector::io_counts(c, res.fault_counts);
  c.io(res.energy_counter_resets);
}

template <typename C, typename T>
void io_marker(C& c, T& m) {
  c.tag("MARK");
  c.io(m.experiment);
  c.io(m.t_virtual_s);
  c.io(m.events);
  c.io(m.tasks_completed);
  c.io(m.energy_j);
  for (auto& word : m.rng) c.io(word);
}

}  // namespace

void encode_config(ck::Writer& w, const ExperimentConfig& config) { io_config(w, config); }

ExperimentConfig decode_config(ck::Reader& r) {
  ExperimentConfig config;
  io_config(r, config);
  return config;
}

std::string config_bytes(const ExperimentConfig& config) {
  ck::Writer w;
  encode_config(w, config);
  return w.take();
}

void encode_result(ck::Writer& w, const ExperimentResult& result) { io_result(w, result); }

ExperimentResult decode_result(ck::Reader& r) {
  ExperimentResult result;
  io_result(r, result);
  return result;
}

std::string encode_marker(const RunMarker& marker) {
  ck::Writer w;
  io_marker(w, marker);
  return w.take();
}

RunMarker decode_marker(std::string_view bytes) {
  if (bytes.size() != kRunMarkerBytes) {
    throw ck::CheckpointError{"checkpoint run marker is " + std::to_string(bytes.size()) +
                              " bytes, expected " + std::to_string(kRunMarkerBytes)};
  }
  RunMarker marker;
  ck::Reader r{bytes.data(), bytes.size()};
  io_marker(r, marker);
  return marker;
}

}  // namespace greencap::core::ckpt_io
