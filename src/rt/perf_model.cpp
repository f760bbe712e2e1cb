#include "rt/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

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
  for (auto& [key, stats] : sizes) {
    if (key == size) {
      return stats;
    }
  }
  return sizes.emplace_back(size, PerfStats{}).second;
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

std::vector<HistoryPerfModel::HistoryEntry> HistoryPerfModel::export_history() const {
  std::vector<HistoryEntry> out;
  for (CodeletId c = 0; c < slots_.size(); ++c) {
    for (std::size_t i = 0; i < slots_[c].size(); ++i) {
      for (const auto& [size, stats] : slots_[c][i].sizes) {
        out.push_back({names_[c], static_cast<WorkerId>(i / kPrecisions),
                       static_cast<std::uint8_t>(i % kPrecisions), size, stats.samples,
                       stats.mean_s, stats.m2});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const HistoryEntry& a, const HistoryEntry& b) {
    return std::tie(a.codelet, a.worker, a.precision, a.size_key) <
           std::tie(b.codelet, b.worker, b.precision, b.size_key);
  });
  return out;
}

std::vector<HistoryPerfModel::RegressionEntry> HistoryPerfModel::export_regression() const {
  std::vector<RegressionEntry> out;
  for (CodeletId c = 0; c < slots_.size(); ++c) {
    for (std::size_t i = 0; i < slots_[c].size(); ++i) {
      const Slot& s = slots_[c][i];
      if (s.regression.samples > 0) {
        out.push_back({names_[c], static_cast<WorkerId>(i / kPrecisions),
                       static_cast<std::uint8_t>(i % kPrecisions), s.regression.sum_xt,
                       s.regression.sum_xx, s.regression.samples});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const RegressionEntry& a, const RegressionEntry& b) {
    return std::tie(a.codelet, a.worker, a.precision) < std::tie(b.codelet, b.worker, b.precision);
  });
  return out;
}

void HistoryPerfModel::import_state(const std::vector<HistoryEntry>& history,
                                    const std::vector<RegressionEntry>& regression) {
  slots_.clear();
  for (const HistoryEntry& e : history) {
    slot(intern(e.codelet), e.worker, e.precision).history_entry(e.size_key) =
        PerfStats{e.samples, e.mean_s, e.m2};
  }
  for (const RegressionEntry& e : regression) {
    slot(intern(e.codelet), e.worker, e.precision).regression =
        Regression{e.sum_xt, e.sum_xx, e.samples};
  }
}

}  // namespace greencap::rt
