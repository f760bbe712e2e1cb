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
#include <span>
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

  /// The perf model's expected seconds of `task` on every worker (out[i]
  /// for workers()[i]) from one model row lookup, NaN where the model has
  /// no entry: there, and only there, estimate_exec gives the estimate.
  virtual void expected_exec_row(const Task& task, std::span<double> out) = 0;

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

  [[nodiscard]] sim::SimTime operator()(const Worker& worker) {
    const auto node = static_cast<std::size_t>(worker.node());
    if (node >= kNodes) {
      return ctx_.estimate_transfer(task_, worker);
    }
    const std::uint32_t bit = std::uint32_t{1} << node;
    if ((known_ & bit) == 0) {
      by_node_[node] = ctx_.estimate_transfer(task_, worker);
      known_ |= bit;
    }
    return by_node_[node];
  }

 private:
  static constexpr std::size_t kNodes = 32;

  SchedulerContext& ctx_;
  const Task& task_;
  std::uint32_t known_ = 0;  ///< bit n set once by_node_[n] holds node n's estimate
  std::array<sim::SimTime, kNodes> by_node_{};
};

class Scheduler {
 public:
  explicit Scheduler(bool places_on_push = false) : places_on_push_{places_on_push} {}
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once by the runtime before any task is submitted.
  virtual void attach(SchedulerContext& ctx) { ctx_ = &ctx; }

  /// A task's dependencies are satisfied; place or enqueue it. Returns the
  /// worker the task was assigned to, or -1 for shared-queue policies.
  virtual WorkerId push_ready(Task& task) = 0;

  /// An idle worker requests a task; nullptr if nothing eligible. The
  /// default takes the first eligible task of the shared queue (eager,
  /// prio), else the front of the worker's own queue (placing policies).
  virtual Task* pop(Worker& worker);

  /// Any task waiting anywhere in this policy's queues?
  [[nodiscard]] bool has_pending() const { return pending_count() != 0; }

  /// Number of tasks waiting in this policy's queues (telemetry's
  /// ready-queue depth).
  [[nodiscard]] std::size_t pending_count() const { return central_.size() + pending_; }

  /// Whether push_ready puts every task on a worker queue and pop() takes
  /// only from the popping worker's own queue (dm family, random). The
  /// runtime wakes the placed worker at push, so an idle worker never
  /// holds a queued task and a completion need not sweep the idle ones.
  [[nodiscard]] bool places_on_push() const { return places_on_push_; }

  /// Removes and returns every task queued on `worker` (quarantine path).
  /// Tasks parked in shared queues are untouched — they simply stop being
  /// eligible for the worker once it is marked quarantined.
  [[nodiscard]] std::vector<Task*> evict(Worker& worker);

 protected:
  SchedulerContext& ctx() { return *ctx_; }

  /// ctx().expected_exec_row for `task`, in a buffer the next call reuses.
  std::span<const double> exec_row(const Task& task);
  /// The exec_row entry `modelled`, or estimate_exec where the row misses.
  sim::SimTime exec_time(const Task& task, const Worker& worker, double modelled);

  /// Shared-queue policies (eager, prio): the tasks waiting for any
  /// eligible worker, front first.
  std::deque<Task*> central_;
  /// Worker-queue policies: the number of tasks waiting in worker queues.
  std::size_t pending_ = 0;
  /// Round-robin placement position (work stealing).
  std::size_t cursor_ = 0;

 private:
  SchedulerContext* ctx_ = nullptr;
  const bool places_on_push_;
  std::vector<double> exec_row_;  ///< exec_row's buffer
};

/// "eager": one shared FIFO; any worker takes the oldest eligible task.
class EagerScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "eager"; }
  WorkerId push_ready(Task& task) override;
};

/// "random": weighted-random worker choice, proportional to the worker's
/// expected speed on the task.
class RandomScheduler final : public Scheduler {
 public:
  RandomScheduler() : Scheduler{true} {}
  [[nodiscard]] std::string name() const override { return "random"; }
  WorkerId push_ready(Task& task) override;
};

/// "ws": per-worker deques with work stealing from the most loaded victim.
/// "lws" (locality work stealing) steals instead from the victim whose
/// stolen task has the most input bytes already resident on the thief's
/// node.
class WorkStealingScheduler final : public Scheduler {
 public:
  explicit WorkStealingScheduler(bool locality_aware = false) : locality_aware_{locality_aware} {}
  [[nodiscard]] std::string name() const override { return locality_aware_ ? "lws" : "ws"; }
  WorkerId push_ready(Task& task) override;
  Task* pop(Worker& worker) override;

 private:
  const bool locality_aware_;
};

/// "prio": one shared queue ordered by application priority (StarPU's
/// eager-with-priorities); no performance models involved.
class PrioScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "prio"; }
  /// Keeps the shared queue sorted by priority, descending.
  WorkerId push_ready(Task& task) override;
};

/// The dm family: earliest expected completion time using the calibrated
/// performance models. "dm" (heft-tm) scores execution estimates alone;
/// "dmda" (heft-tmdp) adds the data-transfer penalty; "dmdas" adds
/// application-priority-ordered queues with a data-locality tie-break
/// among equal priorities; "dmdae" is energy-aware dmdas, the scheduling
/// extension sketched in the paper's future work ("dynamic scheduling
/// algorithms optimizing energy efficiency"): among the workers finishing
/// within a slack factor of the best one, the lowest expected energy wins.
struct DmPolicy {
  const char* name = "dm";
  bool data_aware = false;    ///< transfer estimates join the objective
  bool sorted = false;        ///< priority-ordered queues
  double energy_slack = 0.0;  ///< 0 disables the energy objective
};

class DmScheduler final : public Scheduler {
 public:
  explicit DmScheduler(DmPolicy policy) : Scheduler{true}, policy_{policy} {}
  [[nodiscard]] std::string name() const override { return policy_.name; }
  WorkerId push_ready(Task& task) override;

 private:
  struct Candidate {
    Worker* worker;
    sim::SimTime finish;
  };

  const DmPolicy policy_;
  /// push_ready's per-call scratch, kept to avoid an allocation per task.
  std::vector<Candidate> candidates_;
};

/// Factory for the predefined policies:
/// eager, prio, random, ws, lws, dm, dmda, dmdas, dmdae.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

}  // namespace greencap::rt
