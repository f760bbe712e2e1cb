// Scheduling policies (StarPU's predefined schedulers).
//
// The runtime hands ready tasks to the scheduler via push_ready() and asks
// for work on behalf of idle workers via pop(). The dm family implements
// HEFT-style earliest-expected-completion placement using the performance
// models; dmda adds data-transfer estimates; dmdas additionally honours the
// application's priorities with priority-ordered per-worker queues and a
// data-locality tie-break (paper section III-B).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "rt/perf_model.hpp"
#include "rt/task.hpp"
#include "rt/types.hpp"
#include "rt/worker.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace greencap::rt {

/// Runtime services available to scheduling policies.
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  [[nodiscard]] virtual std::vector<Worker>& workers() = 0;
  [[nodiscard]] virtual sim::SimTime now() const = 0;
  [[nodiscard]] virtual sim::Xoshiro256& rng() = 0;

  /// Expected execution time of `task` on `worker` (perf model, falling
  /// back to the device model oracle when uncalibrated).
  [[nodiscard]] virtual sim::SimTime estimate_exec(const Task& task, const Worker& worker) = 0;

  /// Expected time to stage `task`'s missing inputs onto `worker`'s node.
  /// Depends on `worker` only through its memory node, so callers may
  /// share one estimate among the workers of a node (TransferEstimates).
  [[nodiscard]] virtual sim::SimTime estimate_transfer(const Task& task,
                                                       const Worker& worker) = 0;

  /// Fraction of `task`'s input bytes already resident on `worker`'s node.
  [[nodiscard]] virtual double locality_fraction(const Task& task, const Worker& worker) = 0;

  /// Expected energy (joules) `task` would draw on `worker` — device
  /// dynamic power during execution, on top of the node's static floor.
  [[nodiscard]] virtual double estimate_energy(const Task& task, const Worker& worker) = 0;
};

/// SchedulerContext::estimate_transfer for one task at one instant,
/// computed once per memory node: every CPU worker shares the host node, so
/// a node with 32 CPU workers and 4 GPUs needs 5 estimates, not 36.
class TransferEstimates {
 public:
  TransferEstimates(SchedulerContext& ctx, const Task& task) : ctx_{ctx}, task_{task} {}

  [[nodiscard]] sim::SimTime operator()(const Worker& worker);

 private:
  static constexpr std::size_t kNodes = 32;

  SchedulerContext& ctx_;
  const Task& task_;
  std::uint32_t known_ = 0;  ///< bit n set once by_node_[n] holds node n's estimate
  std::array<sim::SimTime, kNodes> by_node_{};
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once by the runtime before any task is submitted.
  virtual void attach(SchedulerContext& ctx) { ctx_ = &ctx; }

  /// A task's dependencies are satisfied; place or enqueue it. Returns the
  /// worker the task was assigned to, or -1 for shared-queue policies.
  virtual WorkerId push_ready(Task& task) = 0;

  /// An idle worker requests a task; nullptr if nothing eligible.
  virtual Task* pop(Worker& worker) = 0;

  /// Any task waiting anywhere in this policy's queues?
  [[nodiscard]] bool has_pending() const { return pending_count() != 0; }

  /// Number of tasks waiting in this policy's queues (telemetry's
  /// ready-queue depth).
  [[nodiscard]] std::size_t pending_count() const { return central_.size() + pending_; }

  /// Removes and returns every task queued on `worker` (quarantine path).
  /// Tasks parked in shared queues are untouched — they simply stop being
  /// eligible for the worker once it is marked quarantined.
  [[nodiscard]] std::vector<Task*> evict(Worker& worker);

 protected:
  SchedulerContext& ctx() { return *ctx_; }

  /// Shared-queue policies (eager, prio): the tasks waiting for any
  /// eligible worker, front first.
  std::deque<Task*> central_;
  /// Worker-queue policies: the number of tasks waiting in worker queues.
  std::size_t pending_ = 0;
  /// Round-robin placement position (work stealing).
  std::size_t cursor_ = 0;

 private:
  SchedulerContext* ctx_ = nullptr;
};

/// "eager": one shared FIFO; any worker takes the oldest eligible task.
class EagerScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "eager"; }
  WorkerId push_ready(Task& task) override;
  Task* pop(Worker& worker) override;
};

/// "random": weighted-random worker choice, proportional to the worker's
/// expected speed on the task.
class RandomScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "random"; }
  WorkerId push_ready(Task& task) override;
  Task* pop(Worker& worker) override;
};

/// "ws": per-worker deques with work stealing from the most loaded victim.
class WorkStealingScheduler : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "ws"; }
  WorkerId push_ready(Task& task) override;
  Task* pop(Worker& worker) override;

 protected:
  /// lws steals from the victim with the best data locality instead of
  /// the most loaded one.
  [[nodiscard]] virtual bool locality_aware() const { return false; }
};

/// "lws": locality work stealing — steals from the victim whose stolen
/// task has the most input bytes already resident on the thief's node.
class LwsScheduler final : public WorkStealingScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "lws"; }

 protected:
  [[nodiscard]] bool locality_aware() const override { return true; }
};

/// "prio": one shared queue ordered by application priority (StarPU's
/// eager-with-priorities); no performance models involved.
class PrioScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "prio"; }
  /// Keeps the shared queue sorted by priority, descending.
  WorkerId push_ready(Task& task) override;
  Task* pop(Worker& worker) override;
};

/// "dm" (dequeue model / heft-tm): earliest expected completion time using
/// the calibrated performance models.
class DmScheduler : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "dm"; }
  WorkerId push_ready(Task& task) override;
  Task* pop(Worker& worker) override;

 protected:
  /// Whether transfer estimates join the completion-time objective (dmda+).
  [[nodiscard]] virtual bool data_aware() const { return false; }
  /// Whether queues are priority-ordered (dmdas).
  [[nodiscard]] virtual bool sorted() const { return false; }
  /// Completion-time slack within which the lowest-energy worker wins
  /// (dmdae); 0 disables the energy objective.
  [[nodiscard]] virtual double energy_slack() const { return 0.0; }

 private:
  struct Candidate {
    Worker* worker;
    sim::SimTime finish;
  };

  /// push_ready's per-call scratch, kept to avoid an allocation per task.
  std::vector<Candidate> candidates_;
};

/// "dmda" (heft-tmdp): dm plus data-transfer penalty in the objective.
class DmdaScheduler : public DmScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "dmda"; }

 protected:
  [[nodiscard]] bool data_aware() const override { return true; }
};

/// "dmdas": dmda with application-priority-ordered queues and a
/// data-locality tie-break among equal priorities.
class DmdasScheduler : public DmdaScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "dmdas"; }

 protected:
  [[nodiscard]] bool sorted() const override { return true; }
};

/// "dmdae": energy-aware dmdas — the scheduling extension sketched in the
/// paper's future work ("dynamic scheduling algorithms optimizing energy
/// efficiency"). Among the workers whose expected completion time is within
/// a slack factor of the best one, it places the task on the worker with
/// the lowest expected energy. With slack = 0 it degenerates to dmdas;
/// growing slack trades makespan for joules.
class DmdaeScheduler final : public DmdasScheduler {
 public:
  explicit DmdaeScheduler(double slack = 0.30) : slack_{slack} {}
  [[nodiscard]] std::string name() const override { return "dmdae"; }

 protected:
  [[nodiscard]] double energy_slack() const override { return slack_; }

 private:
  double slack_;
};

/// Factory for the predefined policies:
/// eager, random, ws, dm, dmda, dmdas, dmdae.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

}  // namespace greencap::rt
