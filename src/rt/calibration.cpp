#include "rt/calibration.hpp"

#include <algorithm>

namespace greencap::rt {

namespace {

/// Index of `name` in the record's codelet names, appended when new.
std::uint32_t codelet_index(CalibrationRecord& record, const std::string& name) {
  const auto at = std::find(record.codelets.begin(), record.codelets.end(), name);
  if (at == record.codelets.end()) {
    record.codelets.push_back(name);
    return static_cast<std::uint32_t>(record.codelets.size() - 1);
  }
  return static_cast<std::uint32_t>(at - record.codelets.begin());
}

}  // namespace

void replay_calibration(Runtime& runtime, const CalibrationRecord& record) {
  HistoryPerfModel& model = runtime.perf_model();
  std::vector<CodeletId> ids;
  ids.reserve(record.codelets.size());
  for (const std::string& name : record.codelets) {
    ids.push_back(model.intern(name));
  }
  for (const CalibrationRecord::Entry& e : record.entries) {
    model.record(ids[e.codelet], e.worker, e.work, sim::SimTime::seconds(e.time_s));
  }
}

void Calibrator::calibrate(const Codelet& codelet, const std::vector<hw::KernelWork>& works,
                           int samples_per_point) {
  sets_.push_back(Set{&codelet, works, samples_per_point});
  measure(codelet, works, samples_per_point);
}

void Calibrator::measure(const Codelet& codelet, const std::vector<hw::KernelWork>& works,
                         int samples) {
  HistoryPerfModel& model = runtime_.perf_model();
  CodeletId id = kNoCodelet;
  std::uint32_t index = 0;
  for (std::size_t wi = 0; wi < runtime_.worker_count(); ++wi) {
    const Worker& worker = runtime_.worker(wi);
    if (!codelet.where.can_run_on(worker.arch())) {
      continue;
    }
    for (const hw::KernelWork& work : works) {
      const sim::SimTime t = runtime_.oracle_exec_time(codelet, work, worker);
      for (int s = 0; s < samples; ++s) {
        if (id == kNoCodelet) {
          // Interned at the first measurement, as a by-name record() would:
          // a codelet no worker runs stays unknown to the model.
          id = model.intern(codelet.name);
          if (record_ != nullptr) {
            index = codelet_index(*record_, codelet.name);
          }
        }
        model.record(id, worker.id(), work, t);
        if (record_ != nullptr) {
          record_->entries.push_back(CalibrationRecord::Entry{index, worker.id(), work, t.sec()});
        }
      }
    }
  }
}

void Calibrator::recalibrate_all() {
  runtime_.perf_model().invalidate();
  if (record_ != nullptr) {
    // The invalidation wiped the model's histories (not its interned
    // names); only measurements from here on contribute to its final
    // state, so the replay log restarts too.
    record_->entries.clear();
  }
  for (const Set& set : sets_) {
    measure(*set.codelet, set.works, set.samples);
  }
}

}  // namespace greencap::rt
