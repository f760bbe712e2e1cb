// Workers: the execution units the scheduler dispatches to.
//
// Mirroring StarPU's model on the paper's platforms: one worker per CPU
// core (minus one core per GPU, dedicated to driving it) and one worker
// per CUDA device. Each worker has a memory node — host RAM for CPU
// workers, the device's memory for CUDA workers — and, for dm-family
// schedulers, its own task queue.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "hw/cpu_model.hpp"
#include "hw/gpu_model.hpp"
#include "rt/task.hpp"
#include "rt/types.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace greencap::rt {

class Worker {
 public:
  Worker(WorkerId id, hw::CpuModel* cpu) : id_{id}, arch_{WorkerArch::kCpuCore}, cpu_{cpu} {}
  Worker(WorkerId id, hw::GpuModel* gpu, MemoryNode node)
      : id_{id}, arch_{WorkerArch::kCuda}, node_{node}, gpu_{gpu} {}

  [[nodiscard]] WorkerId id() const { return id_; }
  [[nodiscard]] WorkerArch arch() const { return arch_; }
  [[nodiscard]] MemoryNode node() const { return node_; }
  [[nodiscard]] hw::CpuModel* cpu() const { return cpu_; }
  [[nodiscard]] hw::GpuModel* gpu() const { return gpu_; }

  [[nodiscard]] std::string describe() const;

  // -- live state (owned by Runtime) --------------------------------------
  bool busy = false;
  /// Removed from service (device dropout): ineligible for any task, its
  /// queue drained and its in-flight work requeued elsewhere.
  bool quarantined = false;
  /// The task currently executing (null when idle) and the simulator
  /// events driving it — kept so a dropout can cancel and requeue it.
  Task* inflight = nullptr;
  sim::EventId begin_event;
  sim::EventId end_event;
  /// Scheduler's accumulated completion-time estimate for the queue.
  sim::SimTime expected_free;
  /// Per-worker task queue used by the dm/dmda/dmdas schedulers.
  std::deque<Task*> queue;

  // -- statistics ----------------------------------------------------------
  std::uint64_t tasks_executed = 0;
  double busy_seconds = 0.0;
  double flops_done = 0.0;
  std::uint64_t bytes_transferred = 0;

 private:
  WorkerId id_;
  WorkerArch arch_;
  MemoryNode node_ = kHostNode;
  hw::CpuModel* cpu_ = nullptr;
  hw::GpuModel* gpu_ = nullptr;
};

/// Combined eligibility test used by every scheduling policy: the worker
/// is in service, the codelet's where-mask admits its architecture, and
/// the codelet's can_execute refinement (if any) accepts it.
[[nodiscard]] inline bool worker_can_run(const Task& task, const Worker& worker) {
  const Codelet& codelet = task.codelet();
  return !worker.quarantined && codelet.where.can_run_on(worker.arch()) &&
         (!codelet.can_execute || codelet.can_execute(worker, task));
}

}  // namespace greencap::rt
