// Tasks: one codelet invocation over a set of data handles.
#pragma once

#include <any>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/kernel_work.hpp"
#include "rt/codelet.hpp"
#include "rt/types.hpp"
#include "sim/time.hpp"

namespace greencap::rt {

class DataHandle;

enum class TaskState : std::uint8_t {
  kSubmitted,  ///< waiting on dependencies
  kReady,      ///< dependencies satisfied, in scheduler hands
  kQueued,     ///< assigned to a worker queue
  kRunning,
  kDone,
};

struct TaskAccess {
  DataHandle* handle = nullptr;
  AccessMode mode = AccessMode::kRead;
};

class Task {
 public:
  Task(TaskId id, const Codelet* codelet, hw::KernelWork work,
       CodeletId codelet_id = kNoCodelet)
      : id_{id}, codelet_{codelet}, codelet_id_{codelet_id}, work_{work} {}

  [[nodiscard]] TaskId id() const { return id_; }
  [[nodiscard]] const Codelet& codelet() const { return *codelet_; }
  /// The codelet's interned name (Runtime::submit), the perf-model key.
  [[nodiscard]] CodeletId codelet_id() const { return codelet_id_; }
  [[nodiscard]] const hw::KernelWork& work() const { return work_; }

  [[nodiscard]] const std::vector<TaskAccess>& accesses() const { return accesses_; }
  [[nodiscard]] std::vector<TaskAccess>& accesses() { return accesses_; }

  /// Application priority (Chameleon-style expert hint; larger = more
  /// urgent). Consumed by the dmdas scheduler.
  std::int64_t priority = 0;

  /// Diagnostic label, e.g. "gemm(2,3,1)".
  std::string label;

  /// Kernel argument pack (StarPU's cl_arg): codelet implementations
  /// any_cast it to their argument struct.
  std::any arg;

  // -- runtime bookkeeping (owned by Runtime / DependencyTracker) ---------
  TaskState state = TaskState::kSubmitted;
  std::int32_t unresolved_deps = 0;
  std::vector<TaskId> successors;
  WorkerId assigned_worker = -1;
  sim::SimTime ready_at;
  /// Instant the worker popped the task and staging began (profiler's
  /// transfer-wait anchor; re-set on requeue after a dropout).
  sim::SimTime dispatched_at;
  /// Earliest instant the task's prefetched inputs are resident (only set
  /// when RuntimeOptions::prefetch staged data at queue time).
  sim::SimTime data_ready_at;
  sim::SimTime start_time;
  sim::SimTime end_time;
  /// Dynamic device draw above the static floor while this task ran (W),
  /// recorded at kernel start when RuntimeOptions::profile is on. The
  /// energy-attribution profiler multiplies it by the realized duration.
  double attributed_power_w = 0.0;
  /// Index into the observability decision log, -1 when logging is off.
  std::int64_t decision_index = -1;

 private:
  TaskId id_;
  const Codelet* codelet_;
  CodeletId codelet_id_;
  hw::KernelWork work_;
  std::vector<TaskAccess> accesses_;
};

}  // namespace greencap::rt
