#include "core/run_context.hpp"

#include <utility>

#include "ckpt/file.hpp"
#include "core/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "hw/presets.hpp"
#include "power/sweep.hpp"

namespace greencap::core {

namespace {

/// Cache key for one GPU's best-cap sweep: the sweep is a pure function of
/// the architecture, the precision, and the calibration matrix dimension.
std::string best_cap_key(const hw::GpuArchSpec& arch, hw::Precision precision, int nb) {
  return "cap|" + arch.name + '|' + hw::to_string(precision) + '|' + std::to_string(nb);
}

/// Fills the profiler's run capture: metadata, device records (metered
/// joules, static floors, cap context, modeled H/B/L rate scales for the
/// what-if estimator) and — via the runtime — the realized task graph.
/// Must run while the platform and power manager are still alive.
void fill_capture(prof::RunCapture& capture, const ExperimentConfig& config,
                  const hw::Platform& platform, const power::PowerManager& manager,
                  const rt::Runtime& runtime, const sim::Simulator& simulator,
                  sim::SimTime t_begin, const ExperimentResult& result) {
  capture.platform = config.platform;
  capture.operation = to_string(config.op);
  capture.precision = hw::to_string(config.precision);
  capture.scheduler = config.scheduler;
  capture.gpu_config = config.gpu_config.size() != 0
                           ? config.gpu_config.to_string()
                           : std::string(platform.gpu_count(), 'H');
  capture.n = config.n;
  capture.nb = config.nb;
  capture.t_begin_s = t_begin.sec();
  capture.t_end_s = simulator.now().sec();
  capture.makespan_s = result.stats.makespan.sec();
  capture.total_flops = operation_flops(config.op, static_cast<double>(config.n));

  // Representative kernel for the what-if rate probes: a GEMM tile at the
  // run's block size (the cap sweep's own yardstick).
  hw::KernelWork probe_work;
  probe_work.klass = hw::KernelClass::kGemm;
  probe_work.precision = config.precision;
  probe_work.flops = 1.0;
  probe_work.work_dim = static_cast<double>(config.nb);

  for (std::size_t g = 0; g < platform.gpu_count(); ++g) {
    const hw::GpuModel& gpu = platform.gpu(g);
    prof::DeviceRecord dev;
    dev.kind = prof::DeviceKind::kGpu;
    dev.index = static_cast<std::int32_t>(g);
    dev.name = gpu.spec().name;
    dev.metered_j = g < result.energy.gpu_joules.size() ? result.energy.gpu_joules[g] : 0.0;
    dev.static_w = gpu.spec().idle_w;
    dev.cap_w = gpu.power_cap();
    dev.level = config.gpu_config.size() != 0 ? power::to_char(config.gpu_config.level(g)) : 'H';
    // Modeled kernel rate at each cap level, relative to H — probed on
    // throwaway model instances so the live device's state is untouched.
    auto rate_at = [&](power::Level level) {
      hw::GpuModel probe{gpu.spec(), static_cast<std::int32_t>(g)};
      probe.set_power_cap(manager.watts_for(g, level), sim::SimTime::zero());
      return probe.rate_gflops(probe_work);
    };
    const double rate_h = rate_at(power::Level::kHigh);
    if (rate_h > 0.0) {
      dev.rate_scale_h = 1.0;
      dev.rate_scale_b = rate_at(power::Level::kBest) / rate_h;
      dev.rate_scale_l = rate_at(power::Level::kLow) / rate_h;
    }
    capture.devices.push_back(std::move(dev));
  }
  for (std::size_t p = 0; p < platform.cpu_count(); ++p) {
    const hw::CpuModel& cpu = platform.cpu(p);
    prof::DeviceRecord dev;
    dev.kind = prof::DeviceKind::kCpu;
    dev.index = static_cast<std::int32_t>(p);
    dev.name = cpu.spec().name;
    dev.metered_j = p < result.energy.cpu_joules.size() ? result.energy.cpu_joules[p] : 0.0;
    dev.static_w = cpu.spec().uncore_w;
    dev.cap_w = cpu.power_cap();
    dev.rate_scale_h = 1.0;
    capture.devices.push_back(std::move(dev));
  }

  runtime.export_capture(capture);
}

}  // namespace

RunContext::RunContext(const ExperimentConfig& config, const RunServices& services)
    : services_{services},
      platform_{hw::presets::platform_by_name(config.platform)},
      manager_{platform_, simulator_} {
  result_.config = config;

  // -- fault injection -------------------------------------------------------
  // The injector owns its own seeded RNG stream: constructing it (or running
  // a plan that fires nothing) never perturbs the runtime's randomness.
  if (!config.resilience.faults.empty()) {
    const std::uint64_t fault_seed = config.resilience.fault_seed != 0
                                         ? config.resilience.fault_seed
                                         : config.seed ^ 0x9e3779b97f4a7c15ULL;
    injector_ = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(config.resilience.faults), fault_seed);
    injector_->set_logger(&log_);
  }

  // -- power configuration ---------------------------------------------------
  // Best caps are a pure per-architecture sweep; a campaign-shared cache
  // computes each (arch, precision, nb) once and injects the result.
  if (services_.calibration != nullptr) {
    for (std::size_t g = 0; g < platform_.gpu_count(); ++g) {
      const hw::GpuArchSpec& arch = platform_.gpu(g).spec();
      const double watts = services_.calibration->best_cap_w(
          best_cap_key(arch, config.precision, config.nb),
          [&] { return power::find_best_cap_w(arch, config.precision, config.nb); });
      manager_.set_best_cap_w(g, watts);
    }
  } else {
    manager_.resolve_best_caps(config.precision, config.nb);
  }
  power::PowerResilience power_res;
  power_res.max_retries = config.resilience.max_cap_retries;
  power_res.allow_degradation = config.resilience.degrade;
  manager_.set_resilience(power_res);
  manager_.set_degradation(&result_.degradation);
  manager_.set_logger(&log_);
  if (injector_ != nullptr) {
    manager_.attach_faults(*injector_);
  }

  // Observability artifacts outlive the runtime via the result.
  obs_data_ = config.obs.any() ? std::make_shared<ObservabilityData>() : nullptr;

  rt::RuntimeOptions options;
  options.scheduler = config.scheduler;
  options.execute_kernels = config.execute_kernels;
  options.seed = config.seed;
  // The stale-model ablation also freezes online learning; otherwise the
  // history model would heal itself after one task per worker.
  options.update_perf_model = !config.stale_models;
  options.enable_trace = config.obs.trace;
  options.profile = config.obs.profile;
  if (obs_data_ != nullptr) {
    if (config.obs.metrics) {
      options.metrics = &obs_data_->metrics;
    }
    if (config.obs.decision_log) {
      options.decision_log = &obs_data_->decisions;
    }
  }
  options.faults = injector_.get();
  options.degradation = &result_.degradation;
  options.log = &log_;
  runtime_ = std::make_unique<rt::Runtime>(platform_, simulator_, options);
  if (injector_ != nullptr && obs_data_ != nullptr) {
    injector_->set_metrics(options.metrics);
    if (config.obs.trace) {
      injector_->set_trace(&runtime_->trace());
    }
  }
  if (obs_data_ != nullptr) {
    manager_.set_metrics(options.metrics);
    if (config.obs.trace) {
      manager_.set_trace(&runtime_->trace(), &simulator_);
    }
    if (config.obs.telemetry_period_ms > 0.0) {
      obs::attach_platform_channels(sampler_, platform_);
      runtime_->register_telemetry(sampler_);
    }
  }

  // -- energy accounting -----------------------------------------------------
  // Every raw GPU counter reading flows through a monotonic tracker, so an
  // injected counter reset (driver reload) cannot make end-minus-start go
  // negative. With no faults the trackers are exact pass-throughs.
  gpu_energy_.resize(platform_.gpu_count());
  if (injector_ != nullptr) {
    injector_->on_energy_reset([this](int gpu, sim::SimTime now) {
      // Sample just before zeroing so the tracker holds everything
      // accumulated so far, then fold it explicitly — reconstruction is
      // exact regardless of how much energy follows the reset.
      (void)read_energy(now);
      gpu_energy_[static_cast<std::size_t>(gpu)].note_reset();
      platform_.gpu(static_cast<std::size_t>(gpu)).reset_energy(now);
    });
  }
}

hw::EnergyReading RunContext::read_energy(sim::SimTime now) {
  hw::EnergyReading r = platform_.read_energy(now);
  for (std::size_t g = 0; g < r.gpu_joules.size(); ++g) {
    r.gpu_joules[g] = gpu_energy_[g].update(r.gpu_joules[g]);
  }
  return r;
}

void RunContext::apply_caps() {
  const ExperimentConfig& config = result_.config;
  if (config.gpu_config.size() != 0) {
    manager_.apply(config.gpu_config);
  }
  if (config.cpu_cap) {
    manager_.cap_cpu(config.cpu_cap->package, config.cpu_cap->fraction_of_tdp);
  }
}

void RunContext::start_resilience(bool restoring) {
  const ExperimentConfig& config = result_.config;
  // Reconciliation and the injector's timed faults start only now, after
  // calibration, so plan times mean "seconds into the measured run"; drain
  // hooks stop both at the instant the DAG retires, keeping the makespan
  // free of stray bookkeeping events. On a resume neither is armed here:
  // their pending events come back through the ordered event replay.
  if (config.resilience.reconcile_ms > 0.0) {
    if (!restoring) {
      manager_.start_reconciliation(
          sim::SimTime::millis(config.resilience.reconcile_ms),
          [this](std::size_t gpu) { runtime_->invalidate_gpu_history(gpu); });
    }
    runtime_->add_drain_hook([this] { manager_.stop_reconciliation(); });
  }
  if (injector_ != nullptr && !restoring) {
    injector_->arm(simulator_);
  }
}

void RunContext::begin_measurement() {
  const ExperimentConfig& config = result_.config;
  // Arm telemetry only around the measured operation, mirroring the
  // counter-read-at-start/end energy methodology: calibration activity
  // stays out of the profile.
  if (config.obs.telemetry_period_ms > 0.0 && obs_data_ != nullptr) {
    sampler_.start(simulator_, sim::SimTime::millis(config.obs.telemetry_period_ms));
  }
  // Instant of the start-of-window energy read: calibration (which never
  // advances the clock) is behind us, but resilient cap writes may have —
  // so read the clock here, not at zero.
  t_begin_ = simulator_.now();
  start_energy_ = read_energy(simulator_.now());
}

void RunContext::attach_checkpointer(CheckpointSession& session) {
  if (session.options().every_ms <= 0.0 && session.options().watchdog_ms <= 0.0) {
    return;
  }
  ckpt::Checkpointer::Options copt;
  copt.period = sim::SimTime::millis(session.options().every_ms);
  copt.watchdog = sim::SimTime::millis(session.options().watchdog_ms);
  CheckpointSession* sess = &session;
  checkpointer_ = std::make_unique<ckpt::Checkpointer>(
      simulator_, copt,
      [this, sess](const char* reason) {
        if (sess->writes_enabled()) {
          sess->write_run_checkpoint(reason, result_.config, capture_run_state());
        }
      },
      [this] { return runtime_->stats().tasks_completed; });
  runtime_->add_drain_hook([this] { checkpointer_->cancel(); });
}

ckpt_io::ObsSinks RunContext::obs_sinks() {
  const ExperimentConfig& config = result_.config;
  ckpt_io::ObsSinks sinks;
  if (config.obs.trace) {
    sinks.trace = &runtime_->trace();
  }
  if (obs_data_ != nullptr && config.obs.metrics) {
    sinks.metrics = &obs_data_->metrics;
  }
  if (obs_data_ != nullptr && config.obs.decision_log) {
    sinks.decisions = &obs_data_->decisions;
  }
  if (obs_data_ != nullptr && config.obs.telemetry_period_ms > 0.0) {
    sinks.telemetry = &sampler_;
  }
  return sinks;
}

ckpt_io::RunState RunContext::capture_run_state() {
  const double now_s = simulator_.now().sec();
  ckpt::Writer w;
  w.reserve(last_capture_bytes_ + last_capture_bytes_ / 4);
  w.section("RUN1");
  w.f64(now_s);
  w.f64(t_begin_.sec());
  w.u64(checkpointer_ != nullptr ? checkpointer_->watchdog_progress() : 0);
  ckpt_io::put_energy_reading(w, start_energy_);
  runtime_->save(w);
  ckpt_io::put_devices(w, platform_, gpu_energy_);
  manager_.save(w);
  w.section("FLTS");
  w.boolean(injector_ != nullptr);
  if (injector_ != nullptr) {
    injector_->save(w);
  }
  ckpt_io::put_observability(w, obs_sinks(), result_.degradation);

  // Pending simulator events, keyed by their original scheduling order
  // (seq) so the replay preserves every (time, seq) tie-break.
  std::vector<ckpt_io::EventRecord> pending;
  auto add_event = [&](ckpt_io::EventKind kind, std::int32_t index, sim::EventId id) {
    if (simulator_.pending(id)) {
      pending.push_back({kind, index, simulator_.time_of(id).sec(), id.seq});
    }
  };
  for (std::size_t i = 0; i < runtime_->worker_count(); ++i) {
    const rt::Worker& wk = runtime_->worker(i);
    if (wk.inflight == nullptr) {
      continue;
    }
    if (wk.begin_event.seq != wk.end_event.seq) {
      add_event(ckpt_io::EventKind::kWorkerBegin, wk.id(), wk.begin_event);
    }
    add_event(ckpt_io::EventKind::kWorkerEnd, wk.id(), wk.end_event);
  }
  if (manager_.reconciling()) {
    add_event(ckpt_io::EventKind::kReconcile, -1, manager_.reconcile_event());
  }
  if (sampler_.running()) {
    add_event(ckpt_io::EventKind::kTelemetry, -1, sampler_.pending_event());
  }
  if (injector_ != nullptr) {
    for (const auto& [plan_index, id] : injector_->pending()) {
      add_event(ckpt_io::EventKind::kFault, static_cast<std::int32_t>(plan_index), id);
    }
  }
  if (checkpointer_ != nullptr && checkpointer_->watchdog_armed()) {
    add_event(ckpt_io::EventKind::kWatchdog, -1, checkpointer_->watchdog_event());
  }
  if (checkpointer_ != nullptr && checkpointer_->tick_armed()) {
    add_event(ckpt_io::EventKind::kCkptTick, -1, checkpointer_->tick_event());
  }
  ckpt_io::put_events(w, std::move(pending));
  last_capture_bytes_ = w.data().size();
  return {now_s, w.take()};
}

void RunContext::restore(ckpt_io::RunState resume) {
  const ExperimentConfig& config = result_.config;
  ckpt::Reader r{resume.bytes};
  r.expect_section("RUN1");
  const double t_virtual_s = r.f64();
  const double t_begin_s = r.f64();
  const std::uint64_t watchdog_progress = r.u64();
  hw::EnergyReading start_energy = ckpt_io::get_energy_reading(r);
  runtime_->load(r);
  ckpt_io::get_devices(r, platform_, gpu_energy_);
  manager_.load(r, [this](std::size_t gpu) { runtime_->invalidate_gpu_history(gpu); });
  r.expect_section("FLTS");
  if (r.boolean() != (injector_ != nullptr)) {
    throw ckpt::CheckpointError{"checkpoint fault-injector state does not match the fault plan"};
  }
  if (injector_ != nullptr) {
    injector_->load(r, simulator_);
  }
  const ckpt_io::ObsSinks sinks = obs_sinks();
  ckpt_io::get_observability(r, sinks, result_.degradation);
  if (sinks.telemetry != nullptr) {
    sampler_.resume(simulator_, sim::SimTime::millis(config.obs.telemetry_period_ms));
  }
  const std::vector<ckpt_io::EventRecord> events = ckpt_io::get_events(r);
  if (!r.at_end()) {
    throw ckpt::CheckpointError{"checkpoint run state has " + std::to_string(r.remaining()) +
                                " trailing bytes"};
  }
  t_begin_ = sim::SimTime::seconds(t_begin_s);
  start_energy_ = std::move(start_energy);
  simulator_.restore_clock(sim::SimTime::seconds(t_virtual_s));

  // Ordered replay: events re-created in ascending original seq occupy
  // the lowest new seqs, so every same-instant tie resolves as it did in
  // the checkpointed run.
  std::vector<bool> begin_replayed(runtime_->worker_count(), false);
  for (const ckpt_io::EventRecord& e : events) {
    if (e.kind == ckpt_io::EventKind::kWorkerBegin) {
      begin_replayed.at(static_cast<std::size_t>(e.index)) = true;
    }
  }
  for (const ckpt_io::EventRecord& e : events) {
    const sim::SimTime when = sim::SimTime::seconds(e.when_s);
    switch (e.kind) {
      case ckpt_io::EventKind::kWorkerBegin:
        runtime_->reschedule_begin(e.index);
        break;
      case ckpt_io::EventKind::kWorkerEnd:
        runtime_->reschedule_end(e.index, begin_replayed.at(static_cast<std::size_t>(e.index)));
        break;
      case ckpt_io::EventKind::kReconcile:
        manager_.rearm_reconcile_at(when);
        break;
      case ckpt_io::EventKind::kTelemetry:
        sampler_.rearm_at(when);
        break;
      case ckpt_io::EventKind::kFault:
        if (injector_ == nullptr) {
          throw ckpt::CheckpointError{"checkpoint has a pending fault but no fault plan"};
        }
        injector_->rearm_event(static_cast<std::size_t>(e.index), when);
        break;
      case ckpt_io::EventKind::kWatchdog:
        if (checkpointer_ == nullptr) {
          throw ckpt::CheckpointError{
              "checkpoint has a pending watchdog probe: resume with the same "
              "--watchdog-ms as the checkpointed run"};
        }
        checkpointer_->rearm_watchdog_at(when, watchdog_progress);
        break;
      case ckpt_io::EventKind::kCkptTick:
        if (checkpointer_ == nullptr) {
          throw ckpt::CheckpointError{
              "checkpoint has a pending checkpoint tick: resume with the same "
              "--checkpoint-every-ms as the checkpointed run"};
        }
        checkpointer_->rearm_tick_at(when);
        break;
    }
  }
  if (checkpointer_ != nullptr) {
    checkpointer_->arm_missing();
  }
}

void RunContext::arm_checkpointer() {
  if (checkpointer_ != nullptr) {
    checkpointer_->arm();
  }
}

ExperimentResult RunContext::finish() {
  const ExperimentConfig& config = result_.config;
  runtime_->wait_all();
  result_.energy = read_energy(simulator_.now()) - start_energy_;
  sampler_.stop();
  result_.stats = runtime_->stats();
  if (injector_ != nullptr) {
    result_.fault_counts = injector_->counts();
  }
  for (const auto& tracker : gpu_energy_) {
    result_.energy_counter_resets += tracker.resets_seen();
  }
  if (obs_data_ != nullptr) {
    obs_data_->trace = std::move(runtime_->trace());
    obs_data_->telemetry = sampler_.series();
    obs_data_->worker_names = runtime_->worker_names();
    if (config.obs.profile) {
      fill_capture(obs_data_->capture, config, platform_, manager_, *runtime_, simulator_,
                   t_begin_, result_);
    }
    result_.observability = std::move(obs_data_);
  }
  return std::move(result_);
}

}  // namespace greencap::core
