#include "rt/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace greencap::rt {

std::span<const double> Scheduler::exec_row(const Task& task) {
  exec_row_.resize(ctx().workers().size());
  ctx().expected_exec_row(task, exec_row_);
  return exec_row_;
}

sim::SimTime Scheduler::exec_time(const Task& task, const Worker& worker, double modelled) {
  return std::isnan(modelled) ? ctx().estimate_exec(task, worker)
                              : sim::SimTime::seconds(modelled);
}

Task* Scheduler::pop(Worker& worker) {
  for (auto it = central_.begin(); it != central_.end(); ++it) {
    if (worker_can_run(**it, worker)) {
      Task* task = *it;
      central_.erase(it);
      return task;
    }
  }
  if (worker.queue.empty()) {
    return nullptr;
  }
  Task* task = worker.queue.front();
  worker.queue.pop_front();
  --pending_;
  return task;
}

std::vector<Task*> Scheduler::evict(Worker& worker) {
  std::vector<Task*> evicted{worker.queue.begin(), worker.queue.end()};
  worker.queue.clear();
  pending_ -= evicted.size();
  return evicted;
}

// ---------------------------------------------------------------------------
// eager
// ---------------------------------------------------------------------------

WorkerId EagerScheduler::push_ready(Task& task) {
  central_.push_back(&task);
  return -1;
}

// ---------------------------------------------------------------------------
// random
// ---------------------------------------------------------------------------

WorkerId RandomScheduler::push_ready(Task& task) {
  auto& workers = ctx().workers();
  // Weighted random choice: weight = 1 / expected execution time, i.e.
  // proportional to the worker's speed on this task (StarPU's "random"
  // weights workers by relative performance).
  const std::span<const double> modelled = exec_row(task);
  double total_weight = 0.0;
  std::vector<double> weights(workers.size(), 0.0);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (!worker_can_run(task, workers[i])) continue;
    const double t = exec_time(task, workers[i], modelled[i]).sec();
    weights[i] = t > 0 ? 1.0 / t : 1.0;
    total_weight += weights[i];
  }
  if (total_weight <= 0.0) {
    throw std::runtime_error("random scheduler: no eligible worker for task " + task.label);
  }
  double pick = ctx().rng().uniform() * total_weight;
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (weights[i] <= 0) continue;
    chosen = i;
    pick -= weights[i];
    if (pick <= 0) break;
  }
  workers[chosen].queue.push_back(&task);
  ++pending_;
  return workers[chosen].id();
}

// ---------------------------------------------------------------------------
// ws (work stealing)
// ---------------------------------------------------------------------------

WorkerId WorkStealingScheduler::push_ready(Task& task) {
  auto& workers = ctx().workers();
  // Round-robin initial placement over eligible workers.
  for (std::size_t tries = 0; tries < workers.size(); ++tries) {
    Worker& w = workers[cursor_ % workers.size()];
    ++cursor_;
    if (worker_can_run(task, w)) {
      w.queue.push_back(&task);
      ++pending_;
      return w.id();
    }
  }
  throw std::runtime_error("ws scheduler: no eligible worker for task " + task.label);
}

Task* WorkStealingScheduler::pop(Worker& worker) {
  auto take_from = [this](Worker& victim, Worker& thief, bool from_back) -> Task* {
    auto& q = victim.queue;
    if (from_back) {
      for (auto it = q.rbegin(); it != q.rend(); ++it) {
        if (worker_can_run(**it, thief)) {
          Task* t = *it;
          q.erase(std::next(it).base());
          --pending_;
          return t;
        }
      }
    } else {
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (worker_can_run(**it, thief)) {
          Task* t = *it;
          q.erase(it);
          --pending_;
          return t;
        }
      }
    }
    return nullptr;
  };

  if (Task* local = take_from(worker, worker, /*from_back=*/false)) {
    return local;
  }
  auto& workers = ctx().workers();
  Worker* victim = nullptr;
  if (locality_aware_) {
    // lws: prefer the victim whose tail task keeps the most bytes local.
    double best_locality = -1.0;
    for (Worker& w : workers) {
      if (w.id() == worker.id() || w.queue.empty()) continue;
      if (!worker_can_run(*w.queue.back(), worker)) continue;
      const double locality = ctx().locality_fraction(*w.queue.back(), worker);
      if (locality > best_locality) {
        best_locality = locality;
        victim = &w;
      }
    }
    if (victim == nullptr) {
      // Fall through to load-based stealing (tail tasks all ineligible).
      for (Worker& w : workers) {
        if (w.id() == worker.id() || w.queue.empty()) continue;
        if (victim == nullptr || w.queue.size() > victim->queue.size()) {
          victim = &w;
        }
      }
    }
  } else {
    // ws: steal from the most loaded victim's tail.
    for (Worker& w : workers) {
      if (w.id() == worker.id() || w.queue.empty()) continue;
      if (victim == nullptr || w.queue.size() > victim->queue.size()) {
        victim = &w;
      }
    }
  }
  return victim != nullptr ? take_from(*victim, worker, /*from_back=*/true) : nullptr;
}

// ---------------------------------------------------------------------------
// prio
// ---------------------------------------------------------------------------

WorkerId PrioScheduler::push_ready(Task& task) {
  auto it = central_.begin();
  for (; it != central_.end(); ++it) {
    if ((*it)->priority < task.priority) break;
  }
  central_.insert(it, &task);
  return -1;
}

// ---------------------------------------------------------------------------
// dm / dmda / dmdas / dmdae
// ---------------------------------------------------------------------------

WorkerId DmScheduler::push_ready(Task& task) {
  auto& workers = ctx().workers();
  const sim::SimTime now = ctx().now();
  const bool data_aware = policy_.data_aware;
  const std::span<const double> modelled = exec_row(task);

  candidates_.clear();
  sim::SimTime best_finish = sim::SimTime::infinity();
  TransferEstimates transfer{ctx(), task};
  for (std::size_t i = 0; i < workers.size(); ++i) {
    Worker& w = workers[i];
    if (!worker_can_run(task, w)) continue;
    sim::SimTime penalty = exec_time(task, w, modelled[i]);
    if (data_aware) {
      penalty += transfer(w);
    }
    const sim::SimTime finish = std::max(now, w.expected_free) + penalty;
    candidates_.push_back(Candidate{&w, finish});
    best_finish = std::min(best_finish, finish);
  }
  if (candidates_.empty()) {
    throw std::runtime_error("dm scheduler: no eligible worker for task " + task.label);
  }

  Worker* best = nullptr;
  sim::SimTime chosen_finish;
  if (policy_.energy_slack > 0.0) {
    // Energy-aware selection: among workers finishing within the slack of
    // the earliest completion, minimize expected joules.
    const sim::SimTime budget = now + (best_finish - now) * (1.0 + policy_.energy_slack);
    double best_energy = std::numeric_limits<double>::infinity();
    for (const Candidate& c : candidates_) {
      if (c.finish > budget) continue;
      const double energy = ctx().estimate_energy(task, *c.worker);
      if (energy < best_energy ||
          (energy == best_energy && best != nullptr && c.finish < chosen_finish)) {
        best_energy = energy;
        best = c.worker;
        chosen_finish = c.finish;
      }
    }
  }
  if (best == nullptr) {
    for (const Candidate& c : candidates_) {
      if (c.finish == best_finish) {
        best = c.worker;
        chosen_finish = c.finish;
        break;
      }
    }
  }
  best->expected_free = chosen_finish;

  if (policy_.sorted) {
    // Priority-ordered insertion; among equal priorities, favour tasks
    // whose data is already resident (data-locality tie-break), then FIFO.
    const double locality = ctx().locality_fraction(task, *best);
    auto it = best->queue.begin();
    for (; it != best->queue.end(); ++it) {
      if ((*it)->priority < task.priority) break;
      if ((*it)->priority == task.priority &&
          ctx().locality_fraction(**it, *best) < locality) {
        break;
      }
    }
    best->queue.insert(it, &task);
  } else {
    best->queue.push_back(&task);
  }
  ++pending_;
  return best->id();
}

// ---------------------------------------------------------------------------

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  static constexpr DmPolicy kDmPolicies[] = {
      {"dm", false, false, 0.0},
      {"dmda", true, false, 0.0},
      {"dmdas", true, true, 0.0},
      {"dmdae", true, true, 0.30},
  };
  if (name == "eager") return std::make_unique<EagerScheduler>();
  if (name == "prio") return std::make_unique<PrioScheduler>();
  if (name == "random") return std::make_unique<RandomScheduler>();
  if (name == "ws") return std::make_unique<WorkStealingScheduler>();
  if (name == "lws") return std::make_unique<WorkStealingScheduler>(true);
  for (const DmPolicy& policy : kDmPolicies) {
    if (name == policy.name) return std::make_unique<DmScheduler>(policy);
  }
  throw std::invalid_argument("unknown scheduler: " + name);
}

}  // namespace greencap::rt
