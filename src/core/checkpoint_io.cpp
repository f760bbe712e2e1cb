#include "core/checkpoint_io.hpp"

#include <algorithm>

#include "ckpt/file.hpp"

namespace greencap::core::ckpt_io {

namespace ck = greencap::ckpt;

namespace {

/// Writes a length prefix, then `put` for every element; a null range
/// is written as empty.
template <typename Range, typename Put>
void put_range(ck::Writer& w, const Range* range, Put&& put) {
  if (range == nullptr) {
    w.u64(0);
    return;
  }
  w.u64(range->size());
  for (const auto& item : *range) put(item);
}

/// Reads the length prefix of a series recorded into `sink`. A series the
/// resumed run does not record must be empty: data for it means the
/// checkpoint belongs to a differently configured run.
std::size_t sink_length(ck::Reader& r, std::size_t min_elem_bytes, const void* sink,
                        const char* what) {
  const std::size_t n = r.length(min_elem_bytes);
  if (n != 0 && sink == nullptr) {
    throw ck::CheckpointError{std::string{"checkpoint carries "} + what +
                              " that the resumed run does not record"};
  }
  return n;
}

void put_degradation(ck::Writer& w, const std::vector<fault::DegradationEvent>& events) {
  w.u64(events.size());
  for (const fault::DegradationEvent& e : events) {
    w.str(e.component);
    w.str(e.detail);
    w.str(e.from);
    w.str(e.to);
    w.str(e.reason);
    w.f64(e.at_s);
  }
}

std::vector<fault::DegradationEvent> get_degradation(ck::Reader& r) {
  const std::size_t n = r.length(8 * 5 + 8);
  std::vector<fault::DegradationEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    fault::DegradationEvent e;
    e.component = r.str();
    e.detail = r.str();
    e.from = r.str();
    e.to = r.str();
    e.reason = r.str();
    e.at_s = r.f64();
    events.push_back(std::move(e));
  }
  return events;
}

void put_fault_counts(ck::Writer& w, const fault::FaultInjector::Counts& c) {
  w.u64(c.cap_write_failures);
  w.u64(c.drifts);
  w.u64(c.energy_resets);
  w.u64(c.dropouts);
}

fault::FaultInjector::Counts get_fault_counts(ck::Reader& r) {
  fault::FaultInjector::Counts c;
  c.cap_write_failures = r.u64();
  c.drifts = r.u64();
  c.energy_resets = r.u64();
  c.dropouts = r.u64();
  return c;
}

}  // namespace

void put_energy_reading(ck::Writer& w, const hw::EnergyReading& r) {
  ck::put_f64_vec(w, r.cpu_joules);
  ck::put_f64_vec(w, r.gpu_joules);
}

hw::EnergyReading get_energy_reading(ck::Reader& r) {
  hw::EnergyReading e;
  e.cpu_joules = ck::get_f64_vec(r);
  e.gpu_joules = ck::get_f64_vec(r);
  return e;
}

// -- config ------------------------------------------------------------------

void encode_config(ck::Writer& w, const ExperimentConfig& c) {
  w.section("CFG1");
  w.str(c.platform);
  w.u8(static_cast<std::uint8_t>(c.op));
  w.u8(static_cast<std::uint8_t>(c.precision));
  w.i64(c.n);
  w.i32(c.nb);
  w.u64(c.gpu_config.size());
  for (const power::Level level : c.gpu_config.levels()) {
    w.u8(static_cast<std::uint8_t>(level));
  }
  w.boolean(c.cpu_cap.has_value());
  if (c.cpu_cap) {
    w.u64(c.cpu_cap->package);
    w.f64(c.cpu_cap->fraction_of_tdp);
  }
  w.str(c.scheduler);
  w.u64(c.seed);
  w.boolean(c.recalibrate);
  w.boolean(c.stale_models);
  w.boolean(c.execute_kernels);
  w.boolean(c.obs.trace);
  w.boolean(c.obs.metrics);
  w.boolean(c.obs.decision_log);
  w.f64(c.obs.telemetry_period_ms);
  w.boolean(c.obs.profile);
  w.str(c.resilience.faults);
  w.u64(c.resilience.fault_seed);
  w.f64(c.resilience.reconcile_ms);
  w.boolean(c.resilience.degrade);
  w.i32(c.resilience.max_cap_retries);
}

ExperimentConfig decode_config(ck::Reader& r) {
  r.expect_section("CFG1");
  ExperimentConfig c;
  c.platform = r.str();
  c.op = static_cast<Operation>(r.u8());
  c.precision = static_cast<hw::Precision>(r.u8());
  c.n = r.i64();
  c.nb = r.i32();
  const std::size_t n_levels = r.length(1);
  std::vector<power::Level> levels;
  levels.reserve(n_levels);
  for (std::size_t i = 0; i < n_levels; ++i) {
    levels.push_back(static_cast<power::Level>(r.u8()));
  }
  c.gpu_config = power::GpuConfig{std::move(levels)};
  if (r.boolean()) {
    CpuCap cap;
    cap.package = r.u64();
    cap.fraction_of_tdp = r.f64();
    c.cpu_cap = cap;
  }
  c.scheduler = r.str();
  c.seed = r.u64();
  c.recalibrate = r.boolean();
  c.stale_models = r.boolean();
  c.execute_kernels = r.boolean();
  c.obs.trace = r.boolean();
  c.obs.metrics = r.boolean();
  c.obs.decision_log = r.boolean();
  c.obs.telemetry_period_ms = r.f64();
  c.obs.profile = r.boolean();
  c.resilience.faults = r.str();
  c.resilience.fault_seed = r.u64();
  c.resilience.reconcile_ms = r.f64();
  c.resilience.degrade = r.boolean();
  c.resilience.max_cap_retries = r.i32();
  return c;
}

std::string config_bytes(const ExperimentConfig& config) {
  ck::Writer w;
  encode_config(w, config);
  return w.take();
}

// -- result ------------------------------------------------------------------

void encode_result(ck::Writer& w, const ExperimentResult& res) {
  w.section("RES1");
  encode_config(w, res.config);
  w.f64(res.time_s);
  w.f64(res.gflops);
  w.f64(res.total_energy_j);
  w.f64(res.efficiency_gflops_per_w);
  put_energy_reading(w, res.energy);
  w.u64(res.stats.tasks_submitted);
  w.u64(res.stats.tasks_completed);
  w.u64(res.stats.dependency_edges);
  w.f64(res.stats.makespan.sec());
  w.u64(res.stats.total_bytes_transferred);
  w.u64(res.stats.per_worker.size());
  for (const auto& pw : res.stats.per_worker) {
    w.i32(pw.id);
    w.u8(static_cast<std::uint8_t>(pw.arch));
    w.u64(pw.tasks);
    w.f64(pw.busy_fraction);
  }
  w.u64(res.cpu_tasks);
  w.u64(res.gpu_tasks);
  w.boolean(res.observability != nullptr);
  put_degradation(w, res.degradation.events());
  put_fault_counts(w, res.fault_counts);
  w.i32(res.energy_counter_resets);
}

ExperimentResult decode_result(ck::Reader& r) {
  r.expect_section("RES1");
  ExperimentResult res;
  res.config = decode_config(r);
  res.time_s = r.f64();
  res.gflops = r.f64();
  res.total_energy_j = r.f64();
  res.efficiency_gflops_per_w = r.f64();
  res.energy = get_energy_reading(r);
  res.stats.tasks_submitted = r.u64();
  res.stats.tasks_completed = r.u64();
  res.stats.dependency_edges = r.u64();
  res.stats.makespan = sim::SimTime::seconds(r.f64());
  res.stats.total_bytes_transferred = r.u64();
  const std::size_t n_workers = r.length(8);
  res.stats.per_worker.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    rt::RuntimeStats::WorkerStats pw;
    pw.id = r.i32();
    pw.arch = static_cast<rt::WorkerArch>(r.u8());
    pw.tasks = r.u64();
    pw.busy_fraction = r.f64();
    res.stats.per_worker.push_back(pw);
  }
  res.cpu_tasks = r.u64();
  res.gpu_tasks = r.u64();
  (void)r.boolean();  // had observability
  for (fault::DegradationEvent& e : get_degradation(r)) {
    res.degradation.add(std::move(e));
  }
  res.fault_counts = get_fault_counts(r);
  res.energy_counter_resets = r.i32();
  return res;
}

// -- run state pieces ----------------------------------------------------------

void put_devices(ck::Writer& w, const hw::Platform& platform,
                 const std::vector<hw::MonotonicEnergyTracker>& trackers) {
  w.section("DEVS");
  w.u64(platform.gpu_count());
  for (std::size_t g = 0; g < platform.gpu_count(); ++g) {
    const hw::GpuModel& gpu = platform.gpu(g);
    w.f64(gpu.power_cap());
    w.boolean(gpu.busy());
    w.boolean(gpu.failed());
    w.f64(gpu.meter().power_w());
    w.f64(gpu.meter().joules());
    w.f64(gpu.meter().last_update().sec());
  }
  w.u64(platform.cpu_count());
  for (std::size_t p = 0; p < platform.cpu_count(); ++p) {
    const hw::CpuModel& cpu = platform.cpu(p);
    w.f64(cpu.power_cap());
    w.i32(cpu.active_cores());
    w.f64(cpu.meter().power_w());
    w.f64(cpu.meter().joules());
    w.f64(cpu.meter().last_update().sec());
  }
  w.u64(trackers.size());
  for (const hw::MonotonicEnergyTracker& t : trackers) {
    w.f64(t.offset());
    w.f64(t.last_raw());
    w.i32(t.resets_seen());
  }
}

void get_devices(ck::Reader& r, hw::Platform& platform,
                 std::vector<hw::MonotonicEnergyTracker>& trackers) {
  auto expect_count = [&r](std::size_t live) {
    if (r.length(8) != live) {
      throw ck::CheckpointError{"checkpoint device state does not match the platform"};
    }
  };
  r.expect_section("DEVS");
  expect_count(platform.gpu_count());
  for (std::size_t g = 0; g < platform.gpu_count(); ++g) {
    const double cap_w = r.f64();
    const bool busy = r.boolean();
    const bool failed = r.boolean();
    const double power_w = r.f64();
    const double joules = r.f64();
    const double last_update_s = r.f64();
    platform.gpu(g).restore_state(cap_w, busy, failed, power_w, joules,
                                  sim::SimTime::seconds(last_update_s));
  }
  expect_count(platform.cpu_count());
  for (std::size_t p = 0; p < platform.cpu_count(); ++p) {
    const double cap_w = r.f64();
    const std::int32_t active_cores = r.i32();
    const double power_w = r.f64();
    const double joules = r.f64();
    const double last_update_s = r.f64();
    platform.cpu(p).restore_state(cap_w, active_cores, power_w, joules,
                                  sim::SimTime::seconds(last_update_s));
  }
  expect_count(trackers.size());
  for (hw::MonotonicEnergyTracker& t : trackers) {
    const double offset_j = r.f64();
    const double last_raw_j = r.f64();
    t.restore(offset_j, last_raw_j, r.i32());
  }
}

void put_observability(ck::Writer& w, const ObsSinks& sinks,
                       const fault::DegradationReport& degradation) {
  const sim::Trace* trace = sinks.trace;
  const obs::MetricsRegistry* metrics = sinks.metrics;
  w.section("OBSS");
  put_range(w, trace != nullptr ? &trace->spans() : nullptr, [&w](const sim::Span& sp) {
    w.u8(static_cast<std::uint8_t>(sp.kind));
    w.i32(sp.resource);
    w.i64(sp.object);
    w.str(sp.name);
    w.f64(sp.begin.sec());
    w.f64(sp.end.sec());
  });
  put_range(w, trace != nullptr ? &trace->markers() : nullptr, [&w](const sim::Marker& m) {
    w.str(m.name);
    w.f64(m.when.sec());
  });
  put_range(w, metrics != nullptr ? &metrics->counters() : nullptr, [&w](const auto& entry) {
    w.str(entry.first);
    w.u64(entry.second.value());
  });
  put_range(w, metrics != nullptr ? &metrics->gauges() : nullptr, [&w](const auto& entry) {
    w.str(entry.first);
    w.f64(entry.second.value());
  });
  put_range(w, metrics != nullptr ? &metrics->histograms() : nullptr, [&w](const auto& entry) {
    const obs::Histogram& h = entry.second;
    w.str(entry.first);
    ck::put_f64_vec(w, h.bounds());
    ck::put_u64_vec(w, h.buckets());
    w.u64(h.count());
    w.f64(h.sum());
    w.f64(h.min());
    w.f64(h.max());
  });
  put_range(w, sinks.decisions != nullptr ? &sinks.decisions->decisions() : nullptr,
            [&w](const obs::Decision& d) {
              w.i64(d.task);
              w.str(d.codelet);
              w.str(d.worker_arch);
              w.i32(d.chosen_worker);
              w.f64(d.decided_at.sec());
              w.f64(d.queue_wait_s);
              w.f64(d.expected_exec_s);
              w.f64(d.realized_exec_s);
              w.u64(d.alternatives.size());
              for (const obs::DecisionAlternative& alt : d.alternatives) {
                w.i32(alt.worker);
                w.f64(alt.expected_exec_s);
                w.f64(alt.expected_transfer_s);
                w.f64(alt.expected_energy_j);
              }
            });
  put_range(w, sinks.telemetry != nullptr ? &sinks.telemetry->series().samples() : nullptr,
            [&w](const obs::TelemetrySample& row) {
              w.f64(row.t.sec());
              ck::put_f64_vec(w, row.values);
            });
  put_degradation(w, degradation.events());
}

void get_observability(ck::Reader& r, const ObsSinks& sinks,
                       fault::DegradationReport& degradation) {
  r.expect_section("OBSS");
  std::vector<sim::Span> spans(sink_length(r, 8, sinks.trace, "trace spans"));
  for (sim::Span& sp : spans) {
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(sim::SpanKind::kTransfer)) {
      throw ck::CheckpointError{"checkpoint has a trace span of unknown kind " +
                                std::to_string(kind)};
    }
    sp.kind = static_cast<sim::SpanKind>(kind);
    sp.resource = r.i32();
    sp.object = r.i64();
    sp.name = r.str();
    sp.begin = sim::SimTime::seconds(r.f64());
    sp.end = sim::SimTime::seconds(r.f64());
  }
  std::vector<sim::Marker> markers(sink_length(r, 8, sinks.trace, "trace markers"));
  for (sim::Marker& m : markers) {
    m.name = r.str();
    m.when = sim::SimTime::seconds(r.f64());
  }
  if (sinks.trace != nullptr) {
    sinks.trace->restore(std::move(spans), std::move(markers));
  }
  for (std::size_t n = sink_length(r, 8, sinks.metrics, "metrics"); n > 0; --n) {
    const std::string name = r.str();
    sinks.metrics->counter(name).restore(r.u64());
  }
  for (std::size_t n = sink_length(r, 8, sinks.metrics, "metrics"); n > 0; --n) {
    const std::string name = r.str();
    sinks.metrics->gauge(name).set(r.f64());
  }
  for (std::size_t n = sink_length(r, 8, sinks.metrics, "metrics"); n > 0; --n) {
    const std::string name = r.str();
    const std::vector<double> bounds = ck::get_f64_vec(r);
    std::vector<std::uint64_t> buckets = ck::get_u64_vec(r);
    const std::uint64_t count = r.u64();
    const double sum = r.f64();
    const double min = r.f64();
    const double max = r.f64();
    sinks.metrics->histogram(name, bounds).restore(std::move(buckets), count, sum, min, max);
  }
  for (std::size_t n = sink_length(r, 8, sinks.decisions, "decisions"); n > 0; --n) {
    obs::Decision d;
    d.task = r.i64();
    d.codelet = r.str();
    d.worker_arch = r.str();
    d.chosen_worker = r.i32();
    d.decided_at = sim::SimTime::seconds(r.f64());
    d.queue_wait_s = r.f64();
    d.expected_exec_s = r.f64();
    d.realized_exec_s = r.f64();
    d.alternatives.resize(r.length(4 + 8 * 3));
    for (obs::DecisionAlternative& alt : d.alternatives) {
      alt.worker = r.i32();
      alt.expected_exec_s = r.f64();
      alt.expected_transfer_s = r.f64();
      alt.expected_energy_j = r.f64();
    }
    sinks.decisions->add(std::move(d));
  }
  std::vector<obs::TelemetrySample> rows(sink_length(r, 8, sinks.telemetry, "telemetry"));
  for (obs::TelemetrySample& row : rows) {
    row.t = sim::SimTime::seconds(r.f64());
    row.values = ck::get_f64_vec(r);
  }
  if (sinks.telemetry != nullptr) {
    sinks.telemetry->restore_series(std::move(rows));
  }
  for (fault::DegradationEvent& e : get_degradation(r)) {
    degradation.add(std::move(e));
  }
}

void put_events(ck::Writer& w, std::vector<std::pair<std::uint64_t, EventRecord>> pending) {
  std::sort(pending.begin(), pending.end(),
            [](const auto& lhs, const auto& rhs) { return lhs.first < rhs.first; });
  w.section("EVTS");
  w.u64(pending.size());
  for (const auto& [seq, e] : pending) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.i32(e.index);
    w.f64(e.when_s);
  }
}

std::vector<EventRecord> get_events(ck::Reader& r) {
  r.expect_section("EVTS");
  std::vector<EventRecord> events(r.length(1 + 4 + 8));
  for (EventRecord& e : events) {
    const std::uint8_t kind = r.u8();
    if (kind < static_cast<std::uint8_t>(EventKind::kWorkerBegin) ||
        kind > static_cast<std::uint8_t>(EventKind::kCkptTick)) {
      throw ck::CheckpointError{"checkpoint has a pending event of unknown kind " +
                                std::to_string(kind)};
    }
    e.kind = static_cast<EventKind>(kind);
    e.index = r.i32();
    e.when_s = r.f64();
  }
  return events;
}

}  // namespace greencap::core::ckpt_io
