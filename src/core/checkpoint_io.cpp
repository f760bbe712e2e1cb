#include "core/checkpoint_io.hpp"

#include <algorithm>

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

/// A series recorded into an optional sink, as a length prefix and its
/// entries. Writing calls `put` on every entry of `live`, the sink's
/// series (null when the sink is off: written as empty). Reading calls
/// `get` once per checkpointed entry. A series the resumed run does not
/// record must be empty: data for it means the checkpoint belongs to a
/// differently configured run.
template <typename C, typename Range, typename Put, typename Get>
void io_series(C& c, const Range* live, std::size_t min_elem_bytes, const char* what, Put&& put,
               Get&& get) {
  std::size_t n = live != nullptr ? live->size() : 0;
  c.length(n, min_elem_bytes);
  if constexpr (C::kReading) {
    if (n != 0 && live == nullptr) {
      throw ck::CheckpointError{std::string{"checkpoint carries "} + what +
                                " that the resumed run does not record"};
    }
    for (; n > 0; --n) get();
  } else if (live != nullptr) {
    for (const auto& entry : *live) put(entry);
  }
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
  io_series(c, &report.events(), 8 * 5 + 8, "degradation events", event, [&] {
    fault::DegradationEvent e;
    event(e);
    if constexpr (C::kReading) report.add(std::move(e));
  });
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

template <typename C, typename Platform, typename Trackers>
void io_devices(C& c, Platform& platform, Trackers& trackers) {
  c.tag("DEVS");
  c.count(platform.gpu_count(), 8, "GPUs");
  for (std::size_t g = 0; g < platform.gpu_count(); ++g) {
    auto& gpu = platform.gpu(g);
    double cap_w = gpu.power_cap();
    bool busy = gpu.busy();
    bool failed = gpu.failed();
    double power_w = gpu.meter().power_w();
    double joules = gpu.meter().joules();
    sim::SimTime last_update = gpu.meter().last_update();
    c.io(cap_w);
    c.io(busy);
    c.io(failed);
    c.io(power_w);
    c.io(joules);
    c.io(last_update);
    if constexpr (C::kReading) gpu.restore_state(cap_w, busy, failed, power_w, joules, last_update);
  }
  c.count(platform.cpu_count(), 8, "CPU packages");
  for (std::size_t p = 0; p < platform.cpu_count(); ++p) {
    auto& cpu = platform.cpu(p);
    double cap_w = cpu.power_cap();
    std::int32_t active_cores = cpu.active_cores();
    double power_w = cpu.meter().power_w();
    double joules = cpu.meter().joules();
    sim::SimTime last_update = cpu.meter().last_update();
    c.io(cap_w);
    c.io(active_cores);
    c.io(power_w);
    c.io(joules);
    c.io(last_update);
    if constexpr (C::kReading) cpu.restore_state(cap_w, active_cores, power_w, joules, last_update);
  }
  c.count(trackers.size(), 8, "energy trackers");
  for (auto& t : trackers) {
    double offset_j = t.offset();
    double last_raw_j = t.last_raw();
    std::int32_t resets = t.resets_seen();
    c.io(offset_j);
    c.io(last_raw_j);
    c.io(resets);
    if constexpr (C::kReading) t.restore(offset_j, last_raw_j, resets);
  }
}

template <typename C, typename Report>
void io_observability(C& c, const ObsSinks& sinks, Report& degradation) {
  sim::Trace* trace = sinks.trace;
  obs::MetricsRegistry* metrics = sinks.metrics;
  obs::DecisionLog* decisions = sinks.decisions;
  obs::TelemetrySampler* telemetry = sinks.telemetry;
  // Decoded series that the sinks take over wholesale (reading only).
  std::vector<sim::Span> spans;
  std::vector<sim::Marker> markers;
  std::vector<obs::TelemetrySample> rows;

  auto span = [&c](auto& sp) {
    c.io(sp.kind, sim::SpanKind::kTransfer, "checkpoint has a trace span of unknown kind");
    c.io(sp.resource);
    c.io(sp.object);
    c.io(sp.name);
    c.io(sp.begin);
    c.io(sp.end);
  };
  auto marker = [&c](auto& m) {
    c.io(m.name);
    c.io(m.when);
  };
  auto named = [&c](auto& name, auto&& value) {
    c.io(name);
    c.io(value);
  };
  auto histogram = [&c](auto& name, auto& bounds, auto& buckets, auto&& count, auto&& sum,
                        auto&& min, auto&& max) {
    c.io(name);
    c.seq(bounds, 8);
    c.seq(buckets, 8);
    c.io(count);
    c.io(sum);
    c.io(min);
    c.io(max);
  };
  auto decision = [&c](auto& d) {
    c.io(d.task);
    c.io(d.codelet);
    c.io(d.worker_arch);
    c.io(d.chosen_worker);
    c.io(d.decided_at);
    c.io(d.queue_wait_s);
    c.io(d.expected_exec_s);
    c.io(d.realized_exec_s);
    c.seq(d.alternatives, 4 + 8 * 3, [&c](auto& alt) {
      c.io(alt.worker);
      c.io(alt.expected_exec_s);
      c.io(alt.expected_transfer_s);
      c.io(alt.expected_energy_j);
    });
  };
  auto row = [&c](auto& r) {
    c.io(r.t);
    c.seq(r.values, 8);
  };

  c.tag("OBSS");
  io_series(c, trace != nullptr ? &trace->spans() : nullptr, 8, "trace spans", span,
            [&] { span(spans.emplace_back()); });
  io_series(c, trace != nullptr ? &trace->markers() : nullptr, 8, "trace markers", marker,
            [&] { marker(markers.emplace_back()); });
  io_series(
      c, metrics != nullptr ? &metrics->counters() : nullptr, 8, "metrics",
      [&](const auto& e) { named(e.first, e.second.value()); },
      [&] {
        std::string name;
        std::uint64_t value = 0;
        named(name, value);
        metrics->counter(name).restore(value);
      });
  io_series(
      c, metrics != nullptr ? &metrics->gauges() : nullptr, 8, "metrics",
      [&](const auto& e) { named(e.first, e.second.value()); },
      [&] {
        std::string name;
        double value = 0.0;
        named(name, value);
        metrics->gauge(name).set(value);
      });
  io_series(
      c, metrics != nullptr ? &metrics->histograms() : nullptr, 8, "metrics",
      [&](const auto& e) {
        const obs::Histogram& h = e.second;
        histogram(e.first, h.bounds(), h.buckets(), h.count(), h.sum(), h.min(), h.max());
      },
      [&] {
        std::string name;
        std::vector<double> bounds;
        std::vector<std::uint64_t> buckets;
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        histogram(name, bounds, buckets, count, sum, min, max);
        metrics->histogram(name, bounds).restore(std::move(buckets), count, sum, min, max);
      });
  io_series(c, decisions != nullptr ? &decisions->decisions() : nullptr, 8, "decisions",
            decision, [&] {
              obs::Decision d;
              decision(d);
              decisions->add(std::move(d));
            });
  io_series(c, telemetry != nullptr ? &telemetry->series().samples() : nullptr, 8, "telemetry",
            row, [&] { row(rows.emplace_back()); });
  io_degradation(c, degradation);
  if constexpr (C::kReading) {
    if (trace != nullptr) trace->restore(std::move(spans), std::move(markers));
    if (telemetry != nullptr) telemetry->restore_series(std::move(rows));
  }
}

template <typename C, typename Events>
void io_events(C& c, Events& events) {
  c.tag("EVTS");
  c.seq(events, 1 + 4 + 8, [&c](auto& e) {
    c.io(e.kind, EventKind::kCkptTick, "checkpoint has a pending event of unknown kind",
         EventKind::kWorkerBegin);
    c.io(e.index);
    c.io(e.when_s);
  });
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

void put_energy_reading(ck::Writer& w, const hw::EnergyReading& reading) {
  io_energy_reading(w, reading);
}

hw::EnergyReading get_energy_reading(ck::Reader& r) {
  hw::EnergyReading reading;
  io_energy_reading(r, reading);
  return reading;
}

void put_devices(ck::Writer& w, const hw::Platform& platform,
                 const std::vector<hw::MonotonicEnergyTracker>& trackers) {
  io_devices(w, platform, trackers);
}

void get_devices(ck::Reader& r, hw::Platform& platform,
                 std::vector<hw::MonotonicEnergyTracker>& trackers) {
  io_devices(r, platform, trackers);
}

void put_observability(ck::Writer& w, const ObsSinks& sinks,
                       const fault::DegradationReport& degradation) {
  io_observability(w, sinks, degradation);
}

void get_observability(ck::Reader& r, const ObsSinks& sinks,
                       fault::DegradationReport& degradation) {
  io_observability(r, sinks, degradation);
}

void put_events(ck::Writer& w, std::vector<EventRecord> pending) {
  std::sort(pending.begin(), pending.end(),
            [](const EventRecord& lhs, const EventRecord& rhs) { return lhs.seq < rhs.seq; });
  io_events(w, pending);
}

std::vector<EventRecord> get_events(ck::Reader& r) {
  std::vector<EventRecord> events;
  io_events(r, events);
  return events;
}

}  // namespace greencap::core::ckpt_io
