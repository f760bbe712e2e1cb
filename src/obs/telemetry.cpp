#include "obs/telemetry.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "hw/platform.hpp"
#include "obs/json.hpp"

namespace greencap::obs {

std::int64_t TelemetrySeries::channel_index(const std::string& name) const {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (channels_[i].name == name) {
      return static_cast<std::int64_t>(i);
    }
  }
  return -1;
}

double TelemetrySeries::integrate(std::size_t channel) const {
  double total = 0.0;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    total += samples_[i].values.at(channel) * (samples_[i].t - samples_[i - 1].t).sec();
  }
  return total;
}

double TelemetrySeries::max_value(std::size_t channel) const {
  double best = 0.0;
  for (const TelemetrySample& s : samples_) {
    best = std::max(best, s.values.at(channel));
  }
  return best;
}

void TelemetrySeries::write_json(std::ostream& os) const {
  JsonWriter w{os};
  w.raw("{\n  \"channels\": [");
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    w.raw(i == 0 ? "\n    " : ",\n    ").raw("{\"name\": ").str(channels_[i].name);
    w.raw(", \"unit\": ").str(channels_[i].unit).raw('}');
  }
  w.raw(channels_.empty() ? "],\n" : "\n  ],\n").raw("  \"samples\": [");
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    w.raw(i == 0 ? "\n    [" : ",\n    [").number(samples_[i].t.sec());
    for (const double v : samples_[i].values) {
      w.raw(", ").number(v);
    }
    w.raw(']');
  }
  w.raw(samples_.empty() ? "]\n" : "\n  ]\n").raw("}\n");
}

void TelemetrySeries::write_csv(std::ostream& os) const {
  os << "time_s";
  for (const TelemetryChannel& c : channels_) {
    os << ',' << c.name;
  }
  os << '\n';
  for (const TelemetrySample& s : samples_) {
    os << s.t.sec();
    for (const double v : s.values) {
      os << ',' << v;
    }
    os << '\n';
  }
}

std::size_t TelemetrySampler::add_channel(std::string name, std::string unit, Probe probe) {
  if (running()) {
    throw std::logic_error("TelemetrySampler: cannot add channels while running");
  }
  series_.channels_.push_back({std::move(name), std::move(unit)});
  probes_.push_back(std::move(probe));
  return probes_.size() - 1;
}

void TelemetrySampler::sample_now(sim::SimTime now) {
  TelemetrySample sample;
  sample.t = now;
  sample.values.reserve(probes_.size());
  for (Probe& probe : probes_) {
    sample.values.push_back(probe(now));
  }
  series_.samples_.push_back(std::move(sample));
}

void TelemetrySampler::start(sim::Simulator& sim, sim::SimTime period) {
  if (period <= sim::SimTime::zero()) {
    throw std::invalid_argument("TelemetrySampler: period must be positive");
  }
  sim_ = &sim;
  period_ = period;
  sample_now(sim.now());
  pending_ = sim_->after(period_, [this] { tick(); });
}

void TelemetrySampler::tick() {
  sample_now(sim_->now());
  // Re-arm only while other simulation activity remains; otherwise the
  // sampler would keep Simulator::run() alive forever.
  if (!sim_->idle()) {
    pending_ = sim_->after(period_, [this] { tick(); });
  }
}

void TelemetrySampler::stop() {
  if (sim_ == nullptr) {
    return;
  }
  const sim::SimTime now = sim_->now();
  if (series_.samples_.empty() || series_.samples_.back().t < now) {
    sample_now(now);
  }
  sim_->cancel(pending_);
  sim_ = nullptr;
}

void TelemetrySampler::restore_series(std::vector<TelemetrySample> samples) {
  for (const TelemetrySample& s : samples) {
    if (s.values.size() != series_.channels_.size()) {
      throw std::invalid_argument(
          "TelemetrySampler: restored sample row does not match the channel count");
    }
  }
  series_.samples_ = std::move(samples);
}

void TelemetrySampler::resume(sim::Simulator& sim, sim::SimTime period) {
  if (period <= sim::SimTime::zero()) {
    throw std::invalid_argument("TelemetrySampler: period must be positive");
  }
  sim_ = &sim;
  period_ = period;
  pending_ = sim::EventId{};
}

void TelemetrySampler::rearm_at(sim::SimTime when) {
  pending_ = sim_->at(when, [this] { tick(); });
}

void attach_platform_channels(TelemetrySampler& sampler, hw::Platform& platform) {
  // The power probes report the energy delta over the elapsed interval
  // divided by its length — the time-weighted average draw — seeded with
  // the instantaneous draw on the first sample (zero-length interval).
  //
  // Probes are deliberately stateless: the previous instant's joules are
  // read back from the recorded series (the sibling energy channel of the
  // last row, which is complete because sample_now pushes a row only after
  // all probes ran). A sampler restored from a checkpointed series then
  // produces the exact rows the uninterrupted run would have.
  const TelemetrySampler* self = &sampler;
  auto interval_power = [self](auto* device, std::size_t power_channel) {
    return [self, device, power_channel](sim::SimTime now) {
      device->advance(now);
      const double j = device->energy_joules();
      const auto& rows = self->series().samples();
      if (!rows.empty() && rows.back().t < now) {
        const double prev_j = rows.back().values.at(power_channel + 1);
        return (j - prev_j) / (now - rows.back().t).sec();
      }
      return device->current_power_w();
    };
  };
  for (std::size_t g = 0; g < platform.gpu_count(); ++g) {
    const std::string prefix = "gpu" + std::to_string(g);
    hw::GpuModel* gpu = &platform.gpu(g);
    sampler.add_channel(prefix + ".power_w", "W", interval_power(gpu, sampler.channel_count()));
    sampler.add_channel(prefix + ".energy_j", "J", [gpu](sim::SimTime now) {
      gpu->advance(now);
      return gpu->energy_joules();
    });
    sampler.add_channel(prefix + ".cap_w", "W",
                        [gpu](sim::SimTime) { return gpu->power_cap(); });
  }
  for (std::size_t p = 0; p < platform.cpu_count(); ++p) {
    const std::string prefix = "cpu" + std::to_string(p);
    hw::CpuModel* cpu = &platform.cpu(p);
    sampler.add_channel(prefix + ".power_w", "W", interval_power(cpu, sampler.channel_count()));
    sampler.add_channel(prefix + ".energy_j", "J", [cpu](sim::SimTime now) {
      cpu->advance(now);
      return cpu->energy_joules();
    });
    sampler.add_channel(prefix + ".active_cores", "cores",
                        [cpu](sim::SimTime) { return static_cast<double>(cpu->active_cores()); });
  }
}

}  // namespace greencap::obs
