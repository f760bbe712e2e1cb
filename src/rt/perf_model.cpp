#include "rt/perf_model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

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

const HistoryPerfModel::Row* HistoryPerfModel::Slot::row(std::int64_t size) const {
  const auto it =
      std::find_if(rows.begin(), rows.end(), [size](const Row& r) { return r.size == size; });
  return it != rows.end() ? &*it : nullptr;
}

HistoryPerfModel::Row& HistoryPerfModel::Slot::row_entry(std::int64_t size) {
  auto it = std::lower_bound(rows.begin(), rows.end(), size,
                             [](const Row& r, std::int64_t key) { return r.size < key; });
  if (it == rows.end() || it->size != size) {
    it = rows.insert(it, Row{size, {}});
  }
  return *it;
}

bool HistoryPerfModel::Slot::lookup(const Row* row, std::size_t w, double flops,
                                    double& seconds) const {
  if (row != nullptr && w < row->workers.size() && row->workers[w].samples > 0) {
    seconds = row->workers[w].mean_s;
    return true;
  }
  if (w < regression.size() && regression[w].samples > 0) {
    seconds = regression[w].slope() * flops;
    return true;
  }
  return false;
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

const HistoryPerfModel::Slot* HistoryPerfModel::find(CodeletId codelet,
                                                     std::uint8_t precision) const {
  if (codelet >= names_.size() || precision >= kPrecisions) {
    return nullptr;
  }
  const std::size_t index = static_cast<std::size_t>(codelet) * kPrecisions + precision;
  return index < slots_.size() ? &slots_[index] : nullptr;
}

void HistoryPerfModel::record(CodeletId codelet, WorkerId worker, const hw::KernelWork& work,
                              sim::SimTime duration) {
  const std::uint8_t precision = precision_of(work);
  if (codelet >= names_.size() || worker < 0 || precision >= kPrecisions) {
    throw std::invalid_argument("HistoryPerfModel: invalid key (codelet id " +
                                std::to_string(codelet) + ", worker " + std::to_string(worker) +
                                ", precision " + std::to_string(precision) + ")");
  }
  slots_.resize(names_.size() * kPrecisions);
  Slot& s = slots_[static_cast<std::size_t>(codelet) * kPrecisions + precision];
  const auto w = static_cast<std::size_t>(worker);
  Row& row = s.row_entry(size_key(work));
  row.workers.resize(std::max(row.workers.size(), w + 1));
  row.workers[w].record(duration.sec());
  s.regression.resize(std::max(s.regression.size(), w + 1));
  Regression& fit = s.regression[w];
  fit.sum_xt += work.flops * duration.sec();
  fit.sum_xx += work.flops * work.flops;
  ++fit.samples;
}

std::optional<sim::SimTime> HistoryPerfModel::expected(CodeletId codelet, WorkerId worker,
                                                       const hw::KernelWork& work) const {
  const Slot* s = find(codelet, precision_of(work));
  double seconds = 0.0;
  // A negative worker wraps past every row and regression: no entry.
  if (s == nullptr ||
      !s->lookup(s->row(size_key(work)), static_cast<std::size_t>(worker), work.flops, seconds)) {
    return std::nullopt;
  }
  return sim::SimTime::seconds(seconds);
}

void HistoryPerfModel::expected_all(CodeletId codelet, const hw::KernelWork& work,
                                    std::span<double> out) const {
  std::fill(out.begin(), out.end(), std::numeric_limits<double>::quiet_NaN());
  const Slot* s = find(codelet, precision_of(work));
  if (s == nullptr) {
    return;
  }
  const Row* row = s->row(size_key(work));
  for (std::size_t w = 0; w < out.size(); ++w) {
    (void)s->lookup(row, w, work.flops, out[w]);
  }
}

bool HistoryPerfModel::calibrated(CodeletId codelet, WorkerId worker,
                                  const hw::KernelWork& work) const {
  const Slot* s = find(codelet, precision_of(work));
  const Row* row = s != nullptr ? s->row(size_key(work)) : nullptr;
  const auto w = static_cast<std::size_t>(worker);  // negative wraps past every row
  return row != nullptr && w < row->workers.size() && row->workers[w].samples > 0;
}

std::size_t HistoryPerfModel::entry_count() const {
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    for (const Row& row : s.rows) {
      for (const PerfStats& stats : row.workers) {
        n += stats.samples > 0 ? 1 : 0;
      }
    }
  }
  return n;
}

void HistoryPerfModel::invalidate() { slots_.clear(); }

void HistoryPerfModel::invalidate_worker(WorkerId worker) {
  const auto w = static_cast<std::size_t>(worker);  // negative wraps: no-op
  for (Slot& s : slots_) {
    for (Row& row : s.rows) {
      if (w < row.workers.size()) {
        row.workers[w] = PerfStats{};
      }
    }
    if (w < s.regression.size()) {
      s.regression[w] = Regression{};
    }
  }
}

}  // namespace greencap::rt
