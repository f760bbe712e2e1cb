#include "fault/injector.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace greencap::fault {

namespace {

std::string marker_name(const FaultEvent& e) {
  return std::string{"fault "} + to_string(e.kind) + " gpu" + std::to_string(e.gpu);
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_{std::move(plan)}, rng_{seed} {
  remaining_count_.reserve(plan_.size());
  for (const FaultEvent& e : plan_.events()) {
    remaining_count_.push_back(e.count);
  }
}

void FaultInjector::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_capfail_ = m_drift_ = m_energy_reset_ = m_dropout_ = nullptr;
    return;
  }
  m_capfail_ = &metrics->counter("fault.injected.capfail");
  m_drift_ = &metrics->counter("fault.injected.drift");
  m_energy_reset_ = &metrics->counter("fault.injected.energyreset");
  m_dropout_ = &metrics->counter("fault.injected.dropout");
}

void FaultInjector::schedule_timed(std::size_t index, sim::SimTime when) {
  const FaultEvent& e = plan_.events()[index];
  pending_.push_back(sim_->at(when, [this, &e] {
    const sim::SimTime now = sim_->now();
    note_fired(e, now);
    switch (e.kind) {
      case FaultKind::kCapDrift:
        ++counts_.drifts;
        for (const auto& fn : drift_handlers_) fn(e.gpu, e.factor, e.watts, now);
        break;
      case FaultKind::kEnergyReset:
        ++counts_.energy_resets;
        for (const auto& fn : energy_reset_handlers_) fn(e.gpu, now);
        break;
      case FaultKind::kGpuDropout:
        ++counts_.dropouts;
        if (e.gpu >= 0) {
          if (static_cast<std::size_t>(e.gpu) >= gpu_dropped_.size()) {
            gpu_dropped_.resize(static_cast<std::size_t>(e.gpu) + 1, false);
          }
          gpu_dropped_[static_cast<std::size_t>(e.gpu)] = true;
        }
        for (const auto& fn : dropout_handlers_) fn(e.gpu, now);
        break;
      default:
        break;
    }
  }));
}

void FaultInjector::arm(sim::Simulator& sim) {
  if (armed_) {
    throw std::logic_error("FaultInjector::arm called twice");
  }
  armed_ = true;
  sim_ = &sim;
  origin_ = sim.now();
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const FaultEvent& e = plan_.events()[i];
    switch (e.kind) {
      case FaultKind::kCapDrift:
      case FaultKind::kEnergyReset:
      case FaultKind::kGpuDropout:
        schedule_timed(i, origin_ + sim::SimTime::seconds(e.t));
        break;
      case FaultKind::kCapWriteFail:
      case FaultKind::kStraggler:
        break;  // queried synchronously, nothing to schedule
    }
  }
}

void FaultInjector::cancel_pending() {
  if (sim_ != nullptr) {
    for (const sim::EventId id : pending_) {
      sim_->cancel(id);
    }
  }
  pending_.clear();
}

bool FaultInjector::in_window(const FaultEvent& e, sim::SimTime now, bool relative) const {
  double at = now.sec();
  if (relative) {
    if (!armed_) return false;
    at -= origin_.sec();
  }
  return at >= e.t && at < e.until;
}

std::optional<CapError> FaultInjector::cap_write_error(int gpu, sim::SimTime now) {
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const FaultEvent& e = plan_.events()[i];
    if (e.kind != FaultKind::kCapWriteFail) continue;
    if (e.gpu >= 0 && e.gpu != gpu) continue;
    if (!in_window(e, now, /*relative=*/false)) continue;
    bool fire = false;
    if (e.permanent) {
      fire = true;
    } else if (e.count > 0) {
      if (remaining_count_[i] > 0) {
        --remaining_count_[i];
        fire = true;
      }
    } else if (e.probability >= 1.0 || rng_.uniform() < e.probability) {
      fire = true;
    }
    if (fire) {
      ++counts_.cap_write_failures;
      if (m_capfail_ != nullptr) m_capfail_->inc();
      if (trace_ != nullptr) {
        trace_->add_marker("fault capfail gpu" + std::to_string(gpu), now);
      }
      return e.code;
    }
  }
  return std::nullopt;
}

double FaultInjector::straggler_factor(int gpu, sim::SimTime now) const {
  double factor = 1.0;
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind != FaultKind::kStraggler) continue;
    if (e.gpu >= 0 && e.gpu != gpu) continue;
    if (!in_window(e, now, /*relative=*/true)) continue;
    factor = std::max(factor, e.factor);
  }
  return factor;
}

bool FaultInjector::dropped(int gpu) const {
  return gpu >= 0 && static_cast<std::size_t>(gpu) < gpu_dropped_.size() &&
         gpu_dropped_[static_cast<std::size_t>(gpu)];
}

void FaultInjector::note_fired(const FaultEvent& e, sim::SimTime now) {
  if (trace_ != nullptr) {
    trace_->add_marker(marker_name(e), now);
  }
  obs::Counter* counter = nullptr;
  switch (e.kind) {
    case FaultKind::kCapDrift: counter = m_drift_; break;
    case FaultKind::kEnergyReset: counter = m_energy_reset_; break;
    case FaultKind::kGpuDropout: counter = m_dropout_; break;
    default: break;
  }
  if (counter != nullptr) {
    counter->inc();
  }
}

}  // namespace greencap::fault
