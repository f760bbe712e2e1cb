#include "power/manager.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "ckpt/serial.hpp"

namespace greencap::power {

namespace {

/// Transient errors are worth retrying; kInvalidArgument is a programming
/// error and kNotFound means the device fell off the bus — neither will
/// heal with backoff.
[[nodiscard]] bool retryable(nvml::Result r) {
  return r != nvml::Result::kSuccess && r != nvml::Result::kInvalidArgument &&
         r != nvml::Result::kNotFound;
}

}  // namespace

PowerManager::PowerManager(hw::Platform& platform, sim::Simulator& sim)
    : platform_{platform}, sim_{sim}, nvml_{platform, sim}, rapl_{platform, sim} {
  best_cap_w_.resize(platform.gpu_count());
  target_mw_.resize(platform.gpu_count(), 0);
}

void PowerManager::resolve_best_caps(hw::Precision precision, int matrix_dim) {
  for (std::size_t g = 0; g < platform_.gpu_count(); ++g) {
    best_cap_w_[g] = find_best_cap_w(platform_.gpu(g).spec(), precision, matrix_dim);
  }
}

void PowerManager::set_best_cap_w(std::size_t gpu, double watts) {
  best_cap_w_.at(gpu) = watts;
}

double PowerManager::watts_for(std::size_t gpu, Level level) const {
  const hw::GpuArchSpec& spec = platform_.gpu(gpu).spec();
  switch (level) {
    case Level::kLow: return spec.min_cap_w;
    case Level::kHigh: return spec.tdp_w;
    case Level::kBest:
      if (!best_cap_w_.at(gpu)) {
        throw std::invalid_argument(
            "PowerManager: B level requested but best caps are unresolved — call "
            "resolve_best_caps() first");
      }
      return *best_cap_w_[gpu];
  }
  throw std::invalid_argument("PowerManager: bad level");
}

nvml::Device& PowerManager::device(std::size_t gpu) {
  nvml::Device* dev = nullptr;
  if (nvml_.device_handle_by_index(static_cast<std::uint32_t>(gpu), &dev) !=
      nvml::Result::kSuccess) {
    throw std::runtime_error("PowerManager: NVML handle lookup failed");
  }
  return *dev;
}

void PowerManager::wait_virtual(sim::SimTime delay) {
  const sim::SimTime deadline = sim_.now() + delay;
  // run_until does not advance the clock over an empty queue; pin the
  // deadline with a no-op event so backoff consumes real virtual time.
  sim_.at(deadline, [] {});
  sim_.run_until(deadline);
}

nvml::Result PowerManager::try_set_gpu(std::size_t gpu, std::uint32_t mw) {
  nvml::Device& dev = device(gpu);
  nvml::Result last = nvml::Result::kSuccess;
  double backoff_ms = resilience_.backoff_initial_ms;
  for (int attempt = 0; attempt <= resilience_.max_retries; ++attempt) {
    if (attempt > 0) {
      wait_virtual(sim::SimTime::millis(backoff_ms));
      backoff_ms *= 2.0;
      if (metrics_ != nullptr) {
        metrics_->counter("power.cap_write_retries").inc();
      }
      if (log_ != nullptr) {
        log_->logf(sim::LogLevel::kDebug, "power: retrying cap write gpu%zu (%u mW, attempt %d)",
                   gpu, mw, attempt);
      }
    }
    last = dev.set_power_management_limit(mw);
    if (last == nvml::Result::kSuccess && resilience_.verify_after_write) {
      std::uint32_t read_mw = 0;
      const nvml::Result rd = dev.power_management_limit(&read_mw);
      if (rd != nvml::Result::kSuccess || read_mw != mw) {
        last = rd != nvml::Result::kSuccess ? rd : nvml::Result::kInsufficientPower;
      }
    }
    if (last == nvml::Result::kSuccess || !retryable(last)) {
      break;
    }
  }
  if (last != nvml::Result::kSuccess && metrics_ != nullptr) {
    metrics_->counter("power.cap_write_failures").inc();
  }
  return last;
}

void PowerManager::apply(const GpuConfig& config) {
  if (config.size() != platform_.gpu_count()) {
    throw std::invalid_argument("PowerManager: config '" + config.to_string() + "' targets " +
                                std::to_string(config.size()) + " GPUs, platform has " +
                                std::to_string(platform_.gpu_count()));
  }
  // Resolve every level up front so an unresolved B throws before any
  // device is touched (keeps apply() atomic for argument errors too).
  std::vector<double> watts(config.size());
  for (std::size_t g = 0; g < config.size(); ++g) {
    watts[g] = watts_for(g, config.level(g));
  }
  // Snapshot the limits currently in force so a mid-config failure can be
  // rolled back instead of leaving a half-applied configuration.
  std::vector<std::uint32_t> previous_mw(config.size(), 0);
  for (std::size_t g = 0; g < config.size(); ++g) {
    (void)device(g).power_management_limit(&previous_mw[g]);
  }

  for (std::size_t g = 0; g < config.size(); ++g) {
    const auto mw = static_cast<std::uint32_t>(std::llround(watts[g] * 1000.0));
    nvml::Result res = try_set_gpu(g, mw);
    if (res == nvml::Result::kSuccess) {
      target_mw_[g] = mw;
      note_cap_change("gpu" + std::to_string(g), watts[g]);
      if (metrics_ != nullptr) {
        metrics_->counter("power.gpu_cap_changes").inc();
      }
      continue;
    }

    if (resilience_.allow_degradation) {
      // Graceful degradation: run the GPU at its default limit instead of
      // aborting the whole config. The substitution is the degradation.
      const double tdp_w = platform_.gpu(g).spec().tdp_w;
      const auto tdp_mw = static_cast<std::uint32_t>(std::llround(tdp_w * 1000.0));
      char from[32], to[32];
      std::snprintf(from, sizeof from, "%c (%.0f W)", to_char(config.level(g)), watts[g]);
      const nvml::Result fallback =
          mw == tdp_mw ? res : try_set_gpu(g, tdp_mw);  // H already failed: don't re-spin
      if (fallback == nvml::Result::kSuccess) {
        target_mw_[g] = tdp_mw;
        std::snprintf(to, sizeof to, "H (%.0f W)", tdp_w);
        note_cap_change("gpu" + std::to_string(g), tdp_w);
      } else {
        target_mw_[g] = 0;  // unmanaged: reconciliation must not fight a dead device
        std::snprintf(to, sizeof to, "unmanaged");
      }
      record_degradation("gpu" + std::to_string(g), from, to,
                         std::string{"cap write failed: "} + nvml::error_string(res));
      if (metrics_ != nullptr) {
        metrics_->counter("power.degraded_gpus").inc();
      }
      continue;
    }

    // All-or-nothing: restore the GPUs already written this call, then
    // surface the failure.
    for (std::size_t r = 0; r < g; ++r) {
      if (previous_mw[r] != 0) {
        (void)try_set_gpu(r, previous_mw[r]);
        target_mw_[r] = previous_mw[r];
        note_cap_change("gpu" + std::to_string(r),
                        static_cast<double>(previous_mw[r]) / 1000.0);
      }
    }
    if (metrics_ != nullptr && g > 0) {
      metrics_->counter("power.rollbacks").inc();
    }
    throw std::runtime_error("PowerManager: NVML rejected limit " + std::to_string(watts[g]) +
                             " W on GPU " + std::to_string(g) + " (" + nvml::error_string(res) +
                             "); configuration rolled back");
  }
}

void PowerManager::attach_faults(fault::FaultInjector& injector) {
  faults_ = &injector;
  nvml_.set_fault_injector(&injector);
  injector.on_drift([this](int gpu, double factor, double drift_watts, sim::SimTime now) {
    if (gpu < 0 || static_cast<std::size_t>(gpu) >= platform_.gpu_count()) {
      return;
    }
    hw::GpuModel& model = platform_.gpu(static_cast<std::size_t>(gpu));
    const double target = drift_watts > 0.0 ? drift_watts : model.power_cap() * factor;
    // Straight to the device model, bypassing NVML and the manager's
    // bookkeeping: the limit changes *silently*, like thermal throttling.
    model.set_power_cap(target, now);
  });
}

void PowerManager::start_reconciliation(sim::SimTime period,
                                        std::function<void(std::size_t gpu)> on_reassert) {
  if (period <= sim::SimTime::zero()) {
    throw std::invalid_argument("PowerManager: reconciliation period must be positive");
  }
  stop_reconciliation();
  reconcile_period_ = period;
  on_reassert_ = std::move(on_reassert);
  reconcile_active_ = true;
  reconcile_event_ = sim_.after(period, [this] { reconcile_once(); });
}

void PowerManager::stop_reconciliation() {
  if (reconcile_active_) {
    sim_.cancel(reconcile_event_);
    reconcile_active_ = false;
  }
}

template <typename C, typename Self>
void PowerManager::io(C& c, Self& m) {
  c.tag("PWRS");
  c.seq(m.best_cap_w_, 9, [&c](auto& cap) {
    bool has = cap.has_value();
    double watts = cap.value_or(0.0);
    c.io(has);
    c.io(watts);
    if constexpr (C::kReading) {
      if (has) cap = watts;
    }
  });
  c.count(m.target_mw_.size(), 4, "GPUs");
  for (auto& mw : m.target_mw_) c.io(mw);
  c.io(m.reconcile_active_);
  c.io(m.reconcile_period_);
}

void PowerManager::save(ckpt::Writer& w) const { io(w, *this); }

void PowerManager::load(ckpt::Reader& r, std::function<void(std::size_t gpu)> on_reassert) {
  io(r, *this);
  on_reassert_ = std::move(on_reassert);
  reconcile_event_ = sim::EventId{};
}

void PowerManager::rearm_reconcile_at(sim::SimTime when) {
  reconcile_event_ = sim_.at(when, [this] { reconcile_once(); });
}

void PowerManager::reconcile_once() {
  if (!reconcile_active_) {
    return;
  }
  for (std::size_t g = 0; g < platform_.gpu_count(); ++g) {
    if (target_mw_[g] == 0) {
      continue;  // never applied, or deliberately unmanaged
    }
    if (faults_ != nullptr && faults_->dropped(static_cast<int>(g))) {
      continue;  // a dead device cannot be reconciled, don't spin on it
    }
    if (metrics_ != nullptr) {
      metrics_->counter("power.reconcile_checks").inc();
    }
    nvml::Device& dev = device(g);
    std::uint32_t read_mw = 0;
    if (dev.power_management_limit(&read_mw) != nvml::Result::kSuccess ||
        read_mw == target_mw_[g]) {
      continue;
    }
    // Drifted: re-assert the last applied limit. A failed rewrite is left
    // for the next period rather than retried in-line, to bound the work
    // done inside one simulator event.
    const double drifted_w = static_cast<double>(read_mw) / 1000.0;
    const double target_w = static_cast<double>(target_mw_[g]) / 1000.0;
    if (dev.set_power_management_limit(target_mw_[g]) == nvml::Result::kSuccess) {
      if (metrics_ != nullptr) {
        metrics_->counter("power.reconcile_reasserts").inc();
      }
      note_cap_change("gpu" + std::to_string(g), target_w);
      char reason[64];
      std::snprintf(reason, sizeof reason, "drifted to %.0f W, re-asserted", drifted_w);
      char from[32], to[32];
      std::snprintf(from, sizeof from, "%.0f W", drifted_w);
      std::snprintf(to, sizeof to, "%.0f W", target_w);
      record_degradation("gpu" + std::to_string(g), from, to, reason);
      if (on_reassert_) {
        on_reassert_(g);
      }
    }
  }
  reconcile_event_ = sim_.after(reconcile_period_, [this] { reconcile_once(); });
}

void PowerManager::record_degradation(std::string detail, std::string from, std::string to,
                                      std::string reason) {
  if (log_ != nullptr) {
    log_->logf(sim::LogLevel::kInfo, "power: %s degraded %s -> %s (%s) at t=%.6fs", detail.c_str(),
               from.c_str(), to.c_str(), reason.c_str(), sim_.now().sec());
  }
  if (degradation_ == nullptr) {
    return;
  }
  fault::DegradationEvent event;
  event.component = "power";
  event.detail = std::move(detail);
  event.from = std::move(from);
  event.to = std::move(to);
  event.reason = std::move(reason);
  event.at_s = sim_.now().sec();
  degradation_->add(std::move(event));
}

void PowerManager::note_cap_change(const std::string& device, double watts) {
  if (metrics_ != nullptr) {
    metrics_->gauge("power.cap_w." + device).set(watts);
  }
  if (trace_ != nullptr && trace_sim_ != nullptr) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "power_cap %s %.0fW", device.c_str(), watts);
    trace_->add_marker(buf, trace_sim_->now());
  }
}

void PowerManager::cap_cpu(std::size_t package, double fraction_of_tdp) {
  if (fraction_of_tdp <= 0.0 || fraction_of_tdp > 1.0) {
    throw std::invalid_argument("PowerManager: CPU cap fraction must be in (0, 1]");
  }
  rapl::Package& pkg = rapl_.package(package);
  const double tdp = platform_.cpu(package).spec().tdp_w;
  pkg.set_power_limit_uw(static_cast<std::uint64_t>(std::llround(tdp * fraction_of_tdp * 1e6)));
  note_cap_change("cpu" + std::to_string(package), tdp * fraction_of_tdp);
  if (metrics_ != nullptr) {
    metrics_->counter("power.cpu_cap_changes").inc();
  }
}

void PowerManager::reset() {
  for (std::size_t g = 0; g < platform_.gpu_count(); ++g) {
    nvml::Device* dev = nullptr;
    if (nvml_.device_handle_by_index(static_cast<std::uint32_t>(g), &dev) !=
        nvml::Result::kSuccess) {
      continue;
    }
    std::uint32_t tdp_mw = 0;
    if (dev->power_management_default_limit(&tdp_mw) == nvml::Result::kSuccess) {
      // Best-effort by design (reset() runs in teardown paths), but no
      // longer silent: a failed restore is counted and reported.
      if (dev->set_power_management_limit(tdp_mw) == nvml::Result::kSuccess) {
        target_mw_[g] = tdp_mw;
      } else {
        if (metrics_ != nullptr) {
          metrics_->counter("power.reset_failures").inc();
        }
        record_degradation("gpu" + std::to_string(g), "reset", "previous cap",
                           "default-limit restore failed");
      }
    }
  }
  for (std::size_t p = 0; p < platform_.cpu_count(); ++p) {
    rapl_.package(p).set_power_limit_uw(
        static_cast<std::uint64_t>(std::llround(platform_.cpu(p).spec().tdp_w * 1e6)));
  }
}

}  // namespace greencap::power
