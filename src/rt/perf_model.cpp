#include "rt/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ckpt/serial.hpp"

namespace greencap::rt {

void PerfStats::record(double seconds) {
  ++samples;
  const double delta = seconds - mean_s;
  mean_s += delta / static_cast<double>(samples);
  m2 += delta * (seconds - mean_s);
}

double PerfStats::variance() const {
  return samples > 1 ? m2 / static_cast<double>(samples - 1) : 0.0;
}

namespace {

[[nodiscard]] std::uint8_t precision_of(const hw::KernelWork& work) {
  return static_cast<std::uint8_t>(work.precision);
}

[[nodiscard]] std::int64_t size_key(const hw::KernelWork& work) {
  return static_cast<std::int64_t>(work.work_dim);
}

}  // namespace

const PerfStats* HistoryPerfModel::Slot::history(std::int64_t size) const {
  for (const auto& [key, stats] : sizes) {
    if (key == size) {
      return &stats;
    }
  }
  return nullptr;
}

PerfStats& HistoryPerfModel::Slot::history_entry(std::int64_t size) {
  auto it = std::lower_bound(sizes.begin(), sizes.end(), size,
                             [](const auto& entry, std::int64_t key) { return entry.first < key; });
  if (it == sizes.end() || it->first != size) {
    it = sizes.emplace(it, size, PerfStats{});
  }
  return it->second;
}

CodeletId HistoryPerfModel::intern(const std::string& codelet) {
  const auto [it, inserted] = ids_.try_emplace(codelet, static_cast<CodeletId>(names_.size()));
  if (inserted) {
    names_.push_back(codelet);
  }
  return it->second;
}

CodeletId HistoryPerfModel::id_of(const std::string& codelet) const {
  const auto it = ids_.find(codelet);
  return it != ids_.end() ? it->second : kNoCodelet;
}

const HistoryPerfModel::Slot* HistoryPerfModel::find(CodeletId codelet, WorkerId worker,
                                                     std::uint8_t precision) const {
  if (codelet >= slots_.size() || worker < 0 || precision >= kPrecisions) {
    return nullptr;
  }
  const std::vector<Slot>& per_codelet = slots_[codelet];
  const std::size_t index = static_cast<std::size_t>(worker) * kPrecisions + precision;
  return index < per_codelet.size() ? &per_codelet[index] : nullptr;
}

HistoryPerfModel::Slot& HistoryPerfModel::slot(CodeletId codelet, WorkerId worker,
                                               std::uint8_t precision) {
  if (codelet >= names_.size() || worker < 0 || precision >= kPrecisions) {
    throw std::invalid_argument("HistoryPerfModel: invalid key (codelet id " +
                                std::to_string(codelet) + ", worker " + std::to_string(worker) +
                                ", precision " + std::to_string(precision) + ")");
  }
  if (codelet >= slots_.size()) {
    slots_.resize(names_.size());
  }
  std::vector<Slot>& per_codelet = slots_[codelet];
  const std::size_t index = static_cast<std::size_t>(worker) * kPrecisions + precision;
  if (index >= per_codelet.size()) {
    per_codelet.resize(index + 1);
  }
  return per_codelet[index];
}

void HistoryPerfModel::record(CodeletId codelet, WorkerId worker, const hw::KernelWork& work,
                              sim::SimTime duration) {
  Slot& s = slot(codelet, worker, precision_of(work));
  s.history_entry(size_key(work)).record(duration.sec());
  s.regression.sum_xt += work.flops * duration.sec();
  s.regression.sum_xx += work.flops * work.flops;
  ++s.regression.samples;
}

std::optional<sim::SimTime> HistoryPerfModel::expected(CodeletId codelet, WorkerId worker,
                                                       const hw::KernelWork& work) const {
  const Slot* s = find(codelet, worker, precision_of(work));
  if (s == nullptr) {
    return std::nullopt;
  }
  if (const PerfStats* stats = s->history(size_key(work))) {
    return sim::SimTime::seconds(stats->mean_s);
  }
  if (s->regression.samples > 0) {
    return sim::SimTime::seconds(s->regression.slope() * work.flops);
  }
  return std::nullopt;
}

bool HistoryPerfModel::calibrated(CodeletId codelet, WorkerId worker,
                                  const hw::KernelWork& work) const {
  const Slot* s = find(codelet, worker, precision_of(work));
  return s != nullptr && s->history(size_key(work)) != nullptr;
}

std::size_t HistoryPerfModel::entry_count() const {
  std::size_t n = 0;
  for (const std::vector<Slot>& per_codelet : slots_) {
    for (const Slot& s : per_codelet) {
      n += s.sizes.size();
    }
  }
  return n;
}

void HistoryPerfModel::invalidate() { slots_.clear(); }

void HistoryPerfModel::invalidate_worker(WorkerId worker) {
  for (CodeletId c = 0; c < slots_.size(); ++c) {
    for (std::uint8_t p = 0; p < kPrecisions; ++p) {
      if (find(c, worker, p) != nullptr) {
        slots_[c][static_cast<std::size_t>(worker) * kPrecisions + p] = Slot{};
      }
    }
  }
}

template <typename F>
void HistoryPerfModel::for_each_slot(F&& f) const {
  std::vector<CodeletId> by_name(names_.size());
  for (CodeletId c = 0; c < by_name.size(); ++c) by_name[c] = c;
  std::sort(by_name.begin(), by_name.end(),
            [this](CodeletId a, CodeletId b) { return names_[a] < names_[b]; });
  for (const CodeletId c : by_name) {
    for (std::size_t i = 0; c < slots_.size() && i < slots_[c].size(); ++i) {
      f(names_[c], static_cast<WorkerId>(i / kPrecisions),
        static_cast<std::uint8_t>(i % kPrecisions), slots_[c][i]);
    }
  }
}

template <typename C, typename Self>
void HistoryPerfModel::io(C& c, Self& model) {
  auto history = [&c](auto& name, auto& worker, auto& precision, auto& size, auto& stats) {
    c.io(name);
    c.io(worker);
    c.io(precision);
    c.io(size);
    c.io(stats.samples);
    c.io(stats.mean_s);
    c.io(stats.m2);
  };
  auto regression = [&c](auto& name, auto& worker, auto& precision, auto& reg) {
    c.io(name);
    c.io(worker);
    c.io(precision);
    c.io(reg.sum_xt);
    c.io(reg.sum_xx);
    c.io(reg.samples);
  };

  if constexpr (C::kReading) {
    model.slots_.clear();
    std::size_t n = 0;
    for (c.length(n, 8); n > 0; --n) {
      std::string name;
      WorkerId worker = 0;
      std::uint8_t precision = 0;
      std::int64_t size = 0;
      PerfStats stats;
      history(name, worker, precision, size, stats);
      model.slot(model.intern(name), worker, precision).history_entry(size) = stats;
    }
    for (c.length(n, 8); n > 0; --n) {
      std::string name;
      WorkerId worker = 0;
      std::uint8_t precision = 0;
      Regression reg;
      regression(name, worker, precision, reg);
      model.slot(model.intern(name), worker, precision).regression = reg;
    }
  } else {
    std::size_t regressions = 0;
    model.for_each_slot([&](const std::string&, WorkerId, std::uint8_t, const Slot& s) {
      regressions += s.regression.samples > 0 ? 1 : 0;
    });
    c.length(model.entry_count(), 8);
    model.for_each_slot(
        [&](const std::string& name, WorkerId worker, std::uint8_t precision, const Slot& s) {
          for (const auto& [size, stats] : s.sizes) history(name, worker, precision, size, stats);
        });
    c.length(regressions, 8);
    model.for_each_slot(
        [&](const std::string& name, WorkerId worker, std::uint8_t precision, const Slot& s) {
          if (s.regression.samples > 0) regression(name, worker, precision, s.regression);
        });
  }
}

template void HistoryPerfModel::io(ckpt::Writer&, const HistoryPerfModel&);
template void HistoryPerfModel::io(ckpt::Reader&, HistoryPerfModel&);

}  // namespace greencap::rt
