// Virtual-time telemetry sampling.
//
// A TelemetrySampler runs on the discrete-event simulator and records a
// row of channel values every `period` of virtual time — per-GPU/CPU
// power, cumulative energy, busy-worker counts, ready-queue depth —
// turning the "totals only" energy accounting into inspectable power
// profiles, the simulated analogue of an nvidia-smi/NVML polling loop on
// the real machines.
//
// Power channels report the *time-weighted average* draw over the elapsed
// sampling interval, derived from the exact energy meters. That makes the
// rectangle integral of the series equal the meter totals to rounding
// error at ANY sampling period, rather than only in the fine-period
// limit — the property the telemetry-vs-meter consistency tests assert.
//
// The sampler disarms itself when the event queue drains (end of the
// simulated run), so arming it never prevents Simulator::run() from
// terminating.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace greencap::hw {
class Platform;
}

namespace greencap::obs {

struct TelemetryChannel {
  std::string name;  ///< e.g. "gpu0.power_w"
  std::string unit;  ///< e.g. "W", "J", "tasks"
};

struct TelemetrySample {
  sim::SimTime t;
  std::vector<double> values;  ///< one per channel, registration order
};

/// The recorded time-series: plain copyable data, detached from the
/// sampler's probes so results can outlive the platform/runtime.
class TelemetrySeries {
 public:
  [[nodiscard]] const std::vector<TelemetryChannel>& channels() const { return channels_; }
  [[nodiscard]] const std::vector<TelemetrySample>& samples() const { return samples_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Index of the named channel, or -1.
  [[nodiscard]] std::int64_t channel_index(const std::string& name) const;

  /// Right-rectangle integral of one channel over the recorded window:
  /// sum of value[i] * (t[i] - t[i-1]). Exact for interval-average power
  /// channels.
  [[nodiscard]] double integrate(std::size_t channel) const;

  /// Peak value of one channel.
  [[nodiscard]] double max_value(std::size_t channel) const;

  /// {"channels":[{"name","unit"}...], "samples":[[t_s, v...], ...]}
  void write_json(std::ostream& os) const;
  /// Header "time_s,<chan>,..." then one row per sample, numbers written
  /// as write_json writes them (%.9g).
  void write_csv(std::ostream& os) const;

 private:
  friend class TelemetrySampler;
  std::vector<TelemetryChannel> channels_;
  std::vector<TelemetrySample> samples_;
};

class TelemetrySampler {
 public:
  using Probe = std::function<double(sim::SimTime now)>;

  /// Registers a channel; `probe` is invoked at every sampling instant.
  /// Must be called before start(). Returns the channel index.
  std::size_t add_channel(std::string name, std::string unit, Probe probe);

  /// Takes an initial sample at sim.now() and arms periodic sampling.
  void start(sim::Simulator& sim, sim::SimTime period);

  /// Takes a final sample at sim.now() (if later than the last one),
  /// cancels the pending tick and disarms. Safe to call when never
  /// started. The runtime calls this the instant the last task retires, so
  /// an armed sampler never extends the simulated timeline.
  void stop();

  /// Manually records a row at `now` (e.g. at a phase boundary).
  void sample_now(sim::SimTime now);

  [[nodiscard]] bool running() const { return sim_ != nullptr; }
  [[nodiscard]] const TelemetrySeries& series() const { return series_; }

  [[nodiscard]] std::size_t channel_count() const { return probes_.size(); }

 private:
  void tick();

  std::vector<Probe> probes_;
  TelemetrySeries series_;
  sim::Simulator* sim_ = nullptr;
  sim::SimTime period_;
  sim::EventId pending_{};
};

/// Registers the standard per-device channels for `platform`:
///   gpu<i>.power_w  — interval-average board draw (integral-exact)
///   gpu<i>.energy_j — cumulative meter reading
///   cpu<p>.power_w / cpu<p>.energy_j — same for each package
/// The platform must outlive the sampler.
void attach_platform_channels(TelemetrySampler& sampler, hw::Platform& platform);

}  // namespace greencap::obs
