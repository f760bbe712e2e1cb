#include "rt/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ckpt/serial.hpp"
#include "obs/telemetry.hpp"
#include "prof/capture.hpp"
#include "sim/log.hpp"

namespace greencap::rt {

Runtime::Runtime(hw::Platform& platform, sim::Simulator& sim, RuntimeOptions options)
    : platform_{platform},
      sim_{sim},
      options_{std::move(options)},
      scheduler_{make_scheduler(options_.scheduler)},
      rng_{options_.seed} {
  trace_.enable(options_.enable_trace);
  build_workers();
  scheduler_->attach(*this);
  if (options_.faults != nullptr) {
    options_.faults->on_dropout([this](int gpu, sim::SimTime now) { handle_dropout(gpu, now); });
    // Timed faults scheduled past the makespan must not extend the virtual
    // clock (they would distort the end-of-run energy reading).
    drain_hooks_.push_back([this] { options_.faults->cancel_pending(); });
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    m_tasks_submitted_ = &reg.counter("rt.tasks_submitted");
    m_tasks_completed_ = &reg.counter("rt.tasks_completed");
    m_transfers_ = &reg.counter("rt.transfers");
    m_bytes_transferred_ = &reg.counter("rt.bytes_transferred");
    reg.gauge("rt.workers").set(static_cast<double>(workers_.size()));
  }
}

Runtime::~Runtime() = default;

void Runtime::build_workers() {
  WorkerId next_id = 0;

  // One CUDA worker per GPU; memory node i+1 belongs to GPU i.
  link_free_.assign(platform_.gpu_count(), sim::SimTime::zero());
  for (std::size_t g = 0; g < platform_.gpu_count(); ++g) {
    workers_.emplace_back(next_id++, &platform_.gpu(g), &platform_.gpu_link(g),
                          static_cast<MemoryNode>(g + 1));
  }

  // CPU workers: one per core, minus the cores dedicated to GPU drivers
  // (assigned round-robin across packages, like StarPU binds CUDA workers
  // near their device). Driver cores poll and contribute no dynamic power.
  std::vector<int> free_cores;
  free_cores.reserve(platform_.cpu_count());
  for (std::size_t p = 0; p < platform_.cpu_count(); ++p) {
    free_cores.push_back(platform_.cpu(p).spec().cores);
  }
  if (options_.dedicate_core_per_gpu && !free_cores.empty()) {
    for (std::size_t g = 0; g < platform_.gpu_count(); ++g) {
      std::size_t pkg = g % free_cores.size();
      if (free_cores[pkg] > 0) {
        --free_cores[pkg];
      }
    }
  }
  for (std::size_t p = 0; p < platform_.cpu_count(); ++p) {
    for (int c = 0; c < free_cores[p]; ++c) {
      workers_.emplace_back(next_id++, &platform_.cpu(p));
    }
  }
  if (workers_.empty()) {
    throw std::runtime_error("Runtime: platform yields no workers");
  }
  if (platform_.gpu_count() + 1 >= DataHandle::kMaxNodes) {
    // Memory nodes: host + one per GPU, so this can only trip with >31 GPUs.
    throw std::runtime_error("Runtime: too many memory nodes");
  }
}

DataHandle* Runtime::register_data(std::uint64_t bytes, void* host_ptr, std::string name) {
  structure_digest_.reset();
  const HandleId id = static_cast<HandleId>(handles_.size());
  if (name.empty()) {
    name = "data" + std::to_string(id);
  }
  handles_.push_back(std::make_unique<DataHandle>(id, bytes, host_ptr, std::move(name)));
  return handles_.back().get();
}

TaskId Runtime::submit(TaskDesc desc) {
  structure_digest_.reset();
  if (desc.codelet == nullptr) {
    throw std::invalid_argument("Runtime::submit: null codelet");
  }
  if (!desc.codelet->where.cpu && !desc.codelet->where.cuda) {
    throw std::invalid_argument("Runtime::submit: codelet '" + desc.codelet->name +
                                "' can run nowhere");
  }
  const TaskId id = static_cast<TaskId>(tasks_.size());
  auto task = std::make_unique<Task>(id, desc.codelet, desc.work,
                                     perf_model_.intern(desc.codelet->name));
  task->priority = desc.priority;
  task->label = desc.label.empty() ? desc.codelet->name + "#" + std::to_string(id)
                                   : std::move(desc.label);
  task->accesses() = std::move(desc.accesses);
  task->arg = std::move(desc.arg);
  Task& ref = *task;
  tasks_.push_back(std::move(task));
  if (m_tasks_submitted_ != nullptr) {
    m_tasks_submitted_->inc();
  }

  std::int32_t pending =
      deps_.register_task(ref, [this](TaskId tid) { return tasks_[tid].get(); });

  // Explicit (tag-style) dependencies on top of the inferred data edges.
  for (TaskId dep : desc.explicit_deps) {
    if (dep < 0 || dep >= id) {
      throw std::invalid_argument("Runtime::submit: explicit dependency " +
                                  std::to_string(dep) + " must reference an earlier task");
    }
    Task& pred = *tasks_[dep];
    if (pred.state == TaskState::kDone) {
      continue;
    }
    if (std::find(pred.successors.begin(), pred.successors.end(), id) ==
        pred.successors.end()) {
      pred.successors.push_back(id);
      ++pending;
    }
  }

  ref.unresolved_deps = pending;
  drained_ = false;  // new work re-arms the drain hooks
  // In restore mode the re-submitted DAG is structure only; true task
  // states (including readiness) are overlaid by load().
  if (pending == 0 && !restoring_) {
    make_ready(ref);
  }
  return id;
}

void Runtime::make_ready(Task& task) {
  task.state = TaskState::kReady;
  task.ready_at = sim_.now();
  const WorkerId placed = scheduler_->push_ready(task);
  task.state = TaskState::kQueued;
  if (placed >= 0) {
    if (options_.prefetch) {
      // Stage inputs now, overlapping the transfers with whatever runs
      // ahead of this task in the worker's queue.
      task.data_ready_at =
          stage_data(task, workers_[static_cast<std::size_t>(placed)]);
    }
    wake_worker(placed);
  } else {
    wake_all_idle();
  }
}

void Runtime::wake_worker(WorkerId id) {
  Worker& w = workers_.at(static_cast<std::size_t>(id));
  if (!w.busy) {
    try_start(w);
  }
}

void Runtime::wake_all_idle() {
  for (Worker& w : workers_) {
    if (!w.busy) {
      try_start(w);
      if (!scheduler_->has_pending()) {
        break;
      }
    }
  }
}

sim::SimTime Runtime::stage_data(Task& task, Worker& worker) {
  sim::SimTime ready = sim_.now();

  auto book_link = [&](std::size_t gpu_index, std::uint64_t bytes) -> sim::SimTime {
    const sim::SimTime start = std::max(sim_.now(), link_free_[gpu_index]);
    const sim::SimTime duration = platform_.gpu_link(gpu_index).transfer_time(bytes);
    const sim::SimTime done = start + duration;
    link_free_[gpu_index] = done;
    worker.transfer_seconds += duration.sec();
    worker.bytes_transferred += bytes;
    if (m_transfers_ != nullptr) {
      m_transfers_->inc();
      m_bytes_transferred_->inc(bytes);
    }
    if (trace_.enabled()) {
      trace_.add_span({sim::SpanKind::kTransfer, static_cast<std::int32_t>(1000 + gpu_index),
                       task.id(), "xfer:" + task.label, start, done});
    }
    return done;
  };

  // Which GPU currently owns a handle that is not valid on the host?
  auto owner_gpu = [&](const DataHandle& h) -> std::size_t {
    for (std::size_t g = 0; g < platform_.gpu_count(); ++g) {
      if (h.valid_on(static_cast<MemoryNode>(g + 1))) {
        return g;
      }
    }
    throw std::runtime_error("Runtime: handle '" + h.name() + "' valid nowhere");
  };

  for (TaskAccess& access : task.accesses()) {
    DataHandle& h = *access.handle;
    const MemoryNode target = worker.node();
    if (h.valid_on(target)) {
      continue;
    }
    // Write-only accesses need no inbound copy: the task produces the data.
    if (access.mode == AccessMode::kWrite) {
      continue;
    }
    if (target == kHostNode) {
      // Device-to-host from the owning GPU.
      const std::size_t src = owner_gpu(h);
      ready = std::max(ready, book_link(src, h.bytes()));
      h.add_copy(kHostNode);
    } else {
      const std::size_t dst_gpu = static_cast<std::size_t>(target - 1);
      if (!h.valid_on(kHostNode)) {
        // GPU-to-GPU goes through the host: d2h on the owner's link first.
        const std::size_t src = owner_gpu(h);
        ready = std::max(ready, book_link(src, h.bytes()));
        h.add_copy(kHostNode);
      }
      ready = std::max(ready, book_link(dst_gpu, h.bytes()));
      h.add_copy(target);
    }
  }
  return ready;
}

void Runtime::record_decision(Task& task, Worker& worker) {
  obs::Decision decision;
  decision.task = task.id();
  decision.codelet = task.codelet().name;
  decision.worker_arch = worker.arch() == WorkerArch::kCuda ? "cuda" : "cpu";
  decision.chosen_worker = worker.id();
  decision.decided_at = sim_.now();
  decision.queue_wait_s = (sim_.now() - task.ready_at).sec();
  decision.expected_exec_s = estimate_exec(task, worker).sec();
  decision.alternatives.reserve(workers_.size());
  TransferEstimates transfer{*this, task};
  for (Worker& candidate : workers_) {
    if (!worker_can_run(task, candidate)) {
      continue;
    }
    obs::DecisionAlternative alt;
    alt.worker = candidate.id();
    alt.expected_exec_s = estimate_exec(task, candidate).sec();
    alt.expected_transfer_s = transfer(candidate).sec();
    alt.expected_energy_j = estimate_energy(task, candidate);
    decision.alternatives.push_back(alt);
  }
  task.decision_index = static_cast<std::int64_t>(options_.decision_log->add(std::move(decision)));
}

sim::SimTime Runtime::actual_exec_time(Task& task, const Worker& worker) {
  sim::SimTime t = oracle_exec_time(task.codelet(), task.work(), worker);
  if (options_.faults != nullptr && worker.arch() == WorkerArch::kCuda) {
    // A straggler window slows the kernel itself; the scheduler's estimate
    // is untouched, so dm-family policies only learn about it from the
    // history model — mirroring how real stragglers surprise StarPU.
    t = t * options_.faults->straggler_factor(worker.gpu()->index(), sim_.now());
  }
  if (options_.exec_noise_rel > 0.0) {
    const double factor = std::max(0.05, 1.0 + options_.exec_noise_rel * rng_.normal());
    t = t * factor;
  }
  return t;
}

sim::SimTime Runtime::oracle_exec_time(const Codelet& codelet, const hw::KernelWork& work,
                                       const Worker& worker) const {
  hw::KernelWork w = work;
  w.klass = codelet.klass;
  if (worker.arch() == WorkerArch::kCuda) {
    return worker.gpu()->execution_time(w) +
           sim::SimTime::micros(options_.cuda_task_overhead_us);
  }
  return worker.cpu()->execution_time(w) + sim::SimTime::micros(options_.cpu_task_overhead_us);
}

void Runtime::try_start(Worker& worker) {
  assert(!worker.busy);
  Task* task = scheduler_->pop(worker);
  if (task == nullptr) {
    return;
  }
  assert(task->state == TaskState::kQueued);
  task->assigned_worker = worker.id();
  task->dispatched_at = sim_.now();
  worker.busy = true;
  if (options_.decision_log != nullptr) {
    record_decision(*task, worker);
  }

  const sim::SimTime transfers_done =
      std::max(stage_data(*task, worker), task->data_ready_at);
  const sim::SimTime start = std::max(sim_.now(), transfers_done);
  const sim::SimTime duration = actual_exec_time(*task, worker);
  const sim::SimTime end = start + duration;
  worker.busy_until = end;
  // Keep the scheduler's optimistic estimate from drifting below reality.
  worker.expected_free = std::max(worker.expected_free, end);

  task->state = TaskState::kRunning;
  task->start_time = start;
  task->end_time = end;

  worker.inflight = task;
  worker.begin_event = schedule_begin(worker);
  worker.end_event = schedule_end(worker);
}

// Both task events capture only `this` and the worker: the task and its
// start/end times are reachable through worker.inflight, and two pointers
// fit std::function's inline buffer, so scheduling a task allocates nothing.
sim::EventId Runtime::schedule_begin(Worker& worker) {
  return sim_.at(worker.inflight->start_time,
                 [this, w = &worker] { begin_execution(*w->inflight, *w); });
}

sim::EventId Runtime::schedule_end(Worker& worker) {
  return sim_.at(worker.inflight->end_time,
                 [this, w = &worker] { finish_task(*w->inflight, *w); });
}

void Runtime::begin_execution(Task& task, Worker& worker) {
  hw::KernelWork w = task.work();
  w.klass = task.codelet().klass;
  if (worker.arch() == WorkerArch::kCuda) {
    worker.gpu()->begin_kernel(w, sim_.now());
  } else {
    worker.cpu()->core_busy(sim_.now());
  }
  if (options_.profile) {
    // Dynamic draw above the device's static floor, read from the very
    // model state the meters integrate — so task power × duration sums
    // back to the metered joules without re-simulation. The CPU read uses
    // the per-core increment (core_dyn × phi); a package-cap clamp lands
    // in the profiler's residual term, by design.
    if (worker.arch() == WorkerArch::kCuda) {
      const hw::GpuModel& gpu = *worker.gpu();
      task.attributed_power_w = gpu.current_power_w() - gpu.spec().idle_w;
    } else {
      const hw::CpuModel& cpu = *worker.cpu();
      const hw::PowerCurve curve{cpu.spec().v_floor};
      task.attributed_power_w = cpu.spec().core_dyn_w * curve.phi(cpu.clock_ratio());
    }
  }
  // The kernel host function runs at *completion* (finish_task), not here:
  // a task aborted mid-flight by a device dropout must leave its output
  // handles untouched so it can re-execute cleanly on a surviving worker.
  // Timing is unaffected — data dependencies already serialize conflicting
  // accesses, so observable results are identical either way.
  if (trace_.enabled()) {
    trace_.add_span({sim::SpanKind::kTask, worker.id(), task.id(), task.label, task.start_time,
                     task.end_time});
  }
}

void Runtime::finish_task(Task& task, Worker& worker) {
  worker.inflight = nullptr;
  if (worker.arch() == WorkerArch::kCuda) {
    worker.gpu()->end_kernel(sim_.now());
  } else {
    worker.cpu()->core_idle(sim_.now());
  }

  if (options_.execute_kernels) {
    const KernelFunc& func = task.codelet().func_for(worker.arch());
    if (func) {
      func(task);
    }
  }

  // Writes take ownership of the data on the executing node.
  for (TaskAccess& access : task.accesses()) {
    if (is_write(access.mode)) {
      access.handle->writer_takes(worker.node());
    }
  }

  // Feed the observation back into the history model (StarPU updates its
  // models from every real execution, not only calibration runs).
  if (options_.update_perf_model) {
    perf_model_.record(task.codelet_id(), worker.id(), task.work(),
                       task.end_time - task.start_time);
  }

  task.state = TaskState::kDone;
  ++tasks_completed_;
  flops_completed_ += task.work().flops;
  last_completion_ = sim_.now();
  ++worker.tasks_executed;
  worker.busy_seconds += (task.end_time - task.start_time).sec();
  worker.flops_done += task.work().flops;

  const double exec_s = (task.end_time - task.start_time).sec();
  if (options_.decision_log != nullptr && task.decision_index >= 0) {
    options_.decision_log->realize(static_cast<std::size_t>(task.decision_index), exec_s);
  }
  if (m_tasks_completed_ != nullptr) {
    m_tasks_completed_->inc();
    const CodeletHistograms& h = codelet_histograms(task);
    h.exec_s->observe(exec_s);
    h.queue_wait_s->observe((task.start_time - task.ready_at).sec());
  }

  for (TaskId succ_id : task.successors) {
    Task& succ = *tasks_[succ_id];
    assert(succ.unresolved_deps > 0);
    if (--succ.unresolved_deps == 0) {
      make_ready(succ);
    }
  }

  worker.busy = false;
  try_start(worker);
  // A retiring GPU task may unblock work that only a different (idle)
  // worker can take (shared-queue policies), so poke the others too.
  if (scheduler_->has_pending()) {
    wake_all_idle();
  }

  // Close the telemetry window the instant the DAG drains: the sampler's
  // final row lands exactly at the makespan and its pending tick is
  // cancelled, so sampling never extends the simulated timeline (and the
  // run's energy accounting stays bit-identical to an unobserved run).
  if (telemetry_ != nullptr && tasks_completed_ == tasks_.size() && telemetry_->running()) {
    telemetry_->stop();
  }
  // Same instant, same reason: stop repeating/pending activities that would
  // keep the simulator from going idle (cap reconciliation, timed faults).
  if (!drained_ && tasks_completed_ == tasks_.size()) {
    drained_ = true;
    for (const auto& hook : drain_hooks_) {
      hook();
    }
  }
}

const Runtime::CodeletHistograms& Runtime::codelet_histograms(const Task& task) {
  const CodeletId id = task.codelet_id();
  if (id >= m_codelet_histograms_.size()) {
    m_codelet_histograms_.resize(id + 1);
  }
  CodeletHistograms& h = m_codelet_histograms_[id];
  if (h.exec_s == nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    h.exec_s = &reg.histogram("rt.exec_s." + task.codelet().name);
    h.queue_wait_s = &reg.histogram("rt.queue_wait_s." + task.codelet().name);
  }
  return h;
}

void Runtime::wait_all() {
  sim_.run();
  if (options_.log != nullptr) {
    options_.log->logf(sim::LogLevel::kDebug,
                       "rt: drained %llu/%zu tasks, makespan %.6fs",
                       static_cast<unsigned long long>(tasks_completed_), tasks_.size(),
                       last_completion_.sec());
  }
  if (tasks_completed_ != tasks_.size()) {
    std::ostringstream oss;
    oss << "Runtime::wait_all: deadlock — " << (tasks_.size() - tasks_completed_)
        << " tasks stuck:";
    int shown = 0;
    for (const auto& t : tasks_) {
      if (t->state != TaskState::kDone && shown < 8) {
        oss << ' ' << t->label << "(deps=" << t->unresolved_deps << ')';
        ++shown;
      }
    }
    throw std::runtime_error(oss.str());
  }
}

sim::SimTime Runtime::flush_to_host() {
  sim::SimTime done = sim_.now();
  for (const auto& handle : handles_) {
    if (handle->valid_on(kHostNode)) {
      continue;
    }
    // Find the owning GPU and book a d2h transfer on its link.
    for (std::size_t g = 0; g < platform_.gpu_count(); ++g) {
      if (handle->valid_on(static_cast<MemoryNode>(g + 1))) {
        const sim::SimTime start = std::max(sim_.now(), link_free_[g]);
        const sim::SimTime finish = start + platform_.gpu_link(g).transfer_time(handle->bytes());
        link_free_[g] = finish;
        done = std::max(done, finish);
        handle->add_copy(kHostNode);
        break;
      }
    }
  }
  if (done > sim_.now()) {
    sim_.at(done, [] {});
    sim_.run();
  }
  return done;
}

sim::SimTime Runtime::estimate_exec(const Task& task, const Worker& worker) {
  if (const auto t = perf_model_.expected(task.codelet_id(), worker.id(), task.work())) {
    return *t;
  }
  return oracle_exec_time(task.codelet(), task.work(), worker);
}

sim::SimTime Runtime::estimate_transfer(const Task& task, const Worker& worker) {
  sim::SimTime total = sim::SimTime::zero();
  for (const TaskAccess& access : task.accesses()) {
    const DataHandle& h = *access.handle;
    if (access.mode == AccessMode::kWrite || h.valid_on(worker.node())) {
      continue;
    }
    if (worker.node() == kHostNode) {
      // d2h from whichever GPU owns it; links are symmetric, use worker 0's
      // sibling link via the owner lookup at staging time — estimate with
      // the first GPU's link parameters (all links identical per platform).
      total += platform_.gpu_link(0).transfer_time(h.bytes());
    } else {
      const std::size_t dst = static_cast<std::size_t>(worker.node() - 1);
      if (!h.valid_on(kHostNode)) {
        total += platform_.gpu_link(dst).transfer_time(h.bytes());  // d2h hop
      }
      total += platform_.gpu_link(dst).transfer_time(h.bytes());
    }
  }
  return total;
}

double Runtime::estimate_energy(const Task& task, const Worker& worker) {
  hw::KernelWork w = task.work();
  w.klass = task.codelet().klass;
  if (worker.arch() == WorkerArch::kCuda) {
    const hw::GpuModel& gpu = *worker.gpu();
    // Dynamic energy above the idle floor (the floor accrues regardless of
    // placement, so only the increment should steer decisions).
    const double power = gpu.power_during(w) - gpu.spec().idle_w;
    return power * gpu.execution_time(w).sec();
  }
  const hw::CpuModel& cpu = *worker.cpu();
  const hw::PowerCurve curve{cpu.spec().v_floor};
  const double power = cpu.spec().core_dyn_w * curve.phi(cpu.clock_ratio());
  return power * cpu.execution_time(w).sec();
}

double Runtime::locality_fraction(const Task& task, const Worker& worker) {
  std::uint64_t total = 0;
  std::uint64_t resident = 0;
  for (const TaskAccess& access : task.accesses()) {
    if (access.mode == AccessMode::kWrite) {
      continue;
    }
    total += access.handle->bytes();
    if (access.handle->valid_on(worker.node())) {
      resident += access.handle->bytes();
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(resident) / static_cast<double>(total);
}

void Runtime::register_telemetry(obs::TelemetrySampler& sampler) {
  sampler.add_channel("rt.workers_busy", "workers", [this](sim::SimTime) {
    double busy = 0.0;
    for (const Worker& w : workers_) {
      busy += w.busy ? 1.0 : 0.0;
    }
    return busy;
  });
  sampler.add_channel("rt.cuda_workers_busy", "workers", [this](sim::SimTime) {
    double busy = 0.0;
    for (const Worker& w : workers_) {
      busy += (w.busy && w.arch() == WorkerArch::kCuda) ? 1.0 : 0.0;
    }
    return busy;
  });
  sampler.add_channel("rt.ready_tasks", "tasks", [this](sim::SimTime) {
    return static_cast<double>(scheduler_->pending_count());
  });
  sampler.add_channel("rt.tasks_completed", "tasks", [this](sim::SimTime) {
    return static_cast<double>(tasks_completed_);
  });
  telemetry_ = &sampler;
}

void Runtime::add_drain_hook(std::function<void()> hook) {
  drain_hooks_.push_back(std::move(hook));
}

void Runtime::invalidate_gpu_history(std::size_t gpu) {
  for (Worker& w : workers_) {
    if (w.arch() == WorkerArch::kCuda && w.gpu() == &platform_.gpu(gpu)) {
      perf_model_.invalidate_worker(w.id());
      return;
    }
  }
}

void Runtime::handle_dropout(int gpu, sim::SimTime now) {
  if (gpu < 0 || static_cast<std::size_t>(gpu) >= platform_.gpu_count()) {
    return;
  }
  Worker* victim = nullptr;
  for (Worker& w : workers_) {
    if (w.arch() == WorkerArch::kCuda && w.gpu() == &platform_.gpu(static_cast<std::size_t>(gpu))) {
      victim = &w;
      break;
    }
  }
  if (victim == nullptr || victim->quarantined) {
    return;
  }
  Worker& w = *victim;
  w.quarantined = true;
  // From this instant the device draws nothing and accepts no kernels; the
  // quarantine flag makes the worker ineligible in worker_can_run, which
  // every scheduling policy consults.
  w.gpu()->fail(now);

  std::vector<Task*> requeue;
  if (w.inflight != nullptr) {
    // Abort the in-flight task: its begin/end events are cancelled (lazy
    // cancellation — already-fired events are a no-op) and, because kernel
    // host functions run at completion, no output was written yet.
    sim_.cancel(w.begin_event);
    sim_.cancel(w.end_event);
    requeue.push_back(w.inflight);
    w.inflight = nullptr;
  }
  w.busy = false;
  w.busy_until = now;
  w.expected_free = now;
  for (Task* queued : scheduler_->evict(w)) {
    requeue.push_back(queued);
  }

  // Coherence repair: copies on the dead device's memory node are gone.
  // Simulated kernels execute against the host mirror (see DataHandle's
  // header), so a handle stranded only on the dead node is restored by
  // re-validating the host copy — the timing analogue of recovering from
  // a host-side checkpoint. Do this *before* requeueing: the scheduler's
  // transfer/locality estimates read handle validity.
  const MemoryNode dead = w.node();
  std::uint64_t restored = 0;
  for (const auto& handle : handles_) {
    if (!handle->valid_on(dead)) {
      continue;
    }
    handle->drop_copy(dead);
    if (handle->copy_count() == 0) {
      handle->add_copy(kHostNode);
      ++restored;
    }
  }

  // The dead worker's samples must not participate in future placement.
  perf_model_.invalidate_worker(w.id());

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    reg.counter("rt.workers_quarantined").inc();
    reg.counter("rt.tasks_requeued").inc(requeue.size());
    reg.counter("rt.handles_restored_from_host").inc(restored);
  }
  if (options_.degradation != nullptr) {
    fault::DegradationEvent event;
    event.component = "rt";
    event.detail = w.describe();
    event.from = "active";
    event.to = "quarantined";
    event.reason = "gpu" + std::to_string(gpu) + " dropout; " + std::to_string(requeue.size()) +
                   " task(s) requeued, " + std::to_string(restored) + " handle(s) refetched";
    event.at_s = now.sec();
    options_.degradation->add(std::move(event));
  }

  // Requeue through the normal ready path so placement, prefetch and the
  // decision log all re-run against the surviving workers.
  for (Task* task : requeue) {
    task->assigned_worker = -1;
    task->data_ready_at = sim::SimTime::zero();
    make_ready(*task);
  }
  if (options_.log != nullptr) {
    options_.log->logf(sim::LogLevel::kInfo,
                       "rt: quarantined %s at t=%.6fs (gpu%d dropout, %zu task(s) requeued, "
                       "%llu handle(s) refetched from host)",
                       w.describe().c_str(), now.sec(), gpu, requeue.size(),
                       static_cast<unsigned long long>(restored));
  }
  wake_all_idle();
}

std::vector<std::string> Runtime::worker_names() const {
  std::vector<std::string> names;
  names.reserve(workers_.size());
  for (const Worker& w : workers_) {
    names.push_back(w.describe());
  }
  return names;
}

void Runtime::export_capture(prof::RunCapture& capture) const {
  capture.workers.clear();
  capture.workers.reserve(workers_.size());
  for (const Worker& w : workers_) {
    prof::WorkerRecord rec;
    rec.id = w.id();
    rec.name = w.describe();
    rec.is_cuda = w.arch() == WorkerArch::kCuda;
    if (rec.is_cuda) {
      rec.device_kind = prof::DeviceKind::kGpu;
      rec.device_index = w.gpu()->index();
    } else {
      rec.device_kind = prof::DeviceKind::kCpu;
      rec.device_index = w.cpu()->index();
    }
    capture.workers.push_back(std::move(rec));
  }

  capture.tasks.clear();
  capture.tasks.reserve(tasks_.size());
  for (const auto& task : tasks_) {
    prof::TaskRecord rec;
    rec.id = task->id();
    rec.label = task->label;
    rec.codelet = task->codelet().name;
    rec.worker = task->assigned_worker;
    rec.ready_s = task->ready_at.sec();
    rec.dispatched_s = task->dispatched_at.sec();
    rec.start_s = task->start_time.sec();
    rec.end_s = task->end_time.sec();
    rec.flops = task->work().flops;
    rec.attributed_power_w = task->attributed_power_w;
    capture.tasks.push_back(std::move(rec));
  }
  // The runtime stores forward edges; the profiler wants predecessors.
  for (const auto& task : tasks_) {
    for (const TaskId succ : task->successors) {
      auto& preds = capture.tasks[static_cast<std::size_t>(succ)].predecessors;
      if (std::find(preds.begin(), preds.end(), task->id()) == preds.end()) {
        preds.push_back(task->id());
      }
    }
  }
}

namespace {

// FNV-1a (64-bit) over the static DAG structure. Local to the digest:
// checkpoints are consumed on the machine that wrote them, so hashing raw
// little-endian integer bytes is fine.
struct StructureHash {
  std::uint64_t h = 14695981039346656037ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t Runtime::structure_digest() const {
  if (structure_digest_) return *structure_digest_;
  StructureHash f;
  f.u64(tasks_.size());
  f.u64(handles_.size());
  for (const auto& h : handles_) {
    f.u64(static_cast<std::uint64_t>(h->id()));
    f.u64(h->bytes());
    f.str(h->name());
  }
  for (const auto& t : tasks_) {
    f.str(t->codelet().name);
    f.str(t->label);
    f.u64(static_cast<std::uint64_t>(t->priority));
    f.u64(t->accesses().size());
    for (const TaskAccess& a : t->accesses()) {
      f.u64(static_cast<std::uint64_t>(a.handle->id()));
      f.u64(static_cast<std::uint64_t>(a.mode));
    }
    f.u64(t->successors.size());
    for (const TaskId succ : t->successors) {
      f.u64(static_cast<std::uint64_t>(succ));
    }
  }
  structure_digest_ = f.h;
  return f.h;
}

template <typename C, typename Self>
void Runtime::io(C& c, Self& rt) {
  // A task reference is coded as its TaskId; reading resolves it to the
  // re-submitted task (-1 is "none" where `nullable`).
  auto task_ref = [&c, &rt](auto& task, bool nullable) {
    std::int64_t id = task != nullptr ? task->id() : -1;
    c.io(id);
    if constexpr (C::kReading) {
      if (nullable && id < 0) {
        task = nullptr;
      } else if (id < 0 || static_cast<std::uint64_t>(id) >= rt.tasks_.size()) {
        throw ckpt::CheckpointError{"Runtime::load: task id " + std::to_string(id) +
                                    " is out of range"};
      } else {
        task = rt.tasks_[static_cast<std::size_t>(id)].get();
      }
    }
  };
  auto queued = [&task_ref](auto& task) { task_ref(task, false); };

  c.tag("RTSS");
  c.count(rt.tasks_.size(), 8, "tasks");
  for (const auto& t : rt.tasks_) {
    c.io(t->state, TaskState::kDone, "Runtime::load: unknown task state");
    c.io(t->unresolved_deps);
    c.io(t->assigned_worker);
    c.io(t->ready_at);
    c.io(t->dispatched_at);
    c.io(t->data_ready_at);
    c.io(t->start_time);
    c.io(t->end_time);
    c.io(t->attributed_power_w);
    c.io(t->decision_index);
  }
  c.count(rt.workers_.size(), 8, "workers");
  for (auto& wk : rt.workers_) {
    c.io(wk.busy);
    c.io(wk.quarantined);
    c.io(wk.busy_until);
    c.io(wk.expected_free);
    c.io(wk.link_free);
    task_ref(wk.inflight, true);
    if constexpr (C::kReading) {
      // In-flight begin/end events are re-created by the caller's ordered
      // event replay (reschedule_begin/reschedule_end), not here.
      wk.begin_event = sim::EventId{};
      wk.end_event = sim::EventId{};
    }
    c.seq(wk.queue, 8, queued);
    c.io(wk.tasks_executed);
    c.io(wk.busy_seconds);
    c.io(wk.flops_done);
    c.io(wk.transfer_seconds);
    c.io(wk.bytes_transferred);
  }
  c.count(rt.handles_.size(), 8, "data handles");
  for (const auto& h : rt.handles_) {
    std::uint64_t mask = h->validity_mask();
    c.io(mask);
    if constexpr (C::kReading) h->restore_validity_mask(mask);
  }
  c.count(rt.link_free_.size(), 8, "links");
  for (auto& t : rt.link_free_) c.io(t);
  c.io(rt.tasks_completed_);
  c.io(rt.flops_completed_);
  c.io(rt.last_completion_);
  c.io(rt.drained_);
  c.io(rt.rng_);
  rt.scheduler_->io(c, queued);
  HistoryPerfModel::io(c, rt.perf_model_);

  const std::uint64_t digest = rt.structure_digest();
  std::uint64_t stored = digest;
  c.io(stored);
  if (stored != digest) {
    std::ostringstream oss;
    oss << "Runtime::load: re-submitted DAG does not match the checkpoint "
        << "(structure digest " << digest << " != " << stored
        << "); the resumed binary or configuration differs from the checkpointed run";
    throw ckpt::CheckpointError{oss.str()};
  }
}

void Runtime::save(ckpt::Writer& w) const { io(w, *this); }

void Runtime::begin_restore() {
  if (!tasks_.empty() || !handles_.empty()) {
    throw std::logic_error("Runtime::begin_restore: runtime already holds work");
  }
  restoring_ = true;
}

void Runtime::load(ckpt::Reader& r) {
  if (!restoring_) {
    throw std::logic_error("Runtime::load without begin_restore");
  }
  io(r, *this);
  restoring_ = false;
}

void Runtime::reschedule_begin(WorkerId worker_id) {
  Worker& w = workers_.at(static_cast<std::size_t>(worker_id));
  Task* task_ptr = w.inflight;
  if (task_ptr == nullptr) {
    throw std::logic_error("Runtime::reschedule_begin: worker has no in-flight task");
  }
  w.begin_event = schedule_begin(w);
}

void Runtime::reschedule_end(WorkerId worker_id, bool begin_pending) {
  Worker& w = workers_.at(static_cast<std::size_t>(worker_id));
  Task* task_ptr = w.inflight;
  if (task_ptr == nullptr) {
    throw std::logic_error("Runtime::reschedule_end: worker has no in-flight task");
  }
  w.end_event = schedule_end(w);
  if (!begin_pending) {
    // The begin already fired before the checkpoint. Alias its handle to
    // the end event so handle_dropout's unconditional cancel of both stays
    // an idempotent double-cancel instead of hitting an unrelated event.
    w.begin_event = w.end_event;
  }
}

RuntimeStats Runtime::stats() const {
  RuntimeStats s;
  s.tasks_submitted = tasks_.size();
  s.tasks_completed = tasks_completed_;
  s.dependency_edges = deps_.edge_count();
  s.makespan = last_completion_;
  for (const Worker& w : workers_) {
    RuntimeStats::WorkerStats ws;
    ws.id = w.id();
    ws.arch = w.arch();
    ws.tasks = w.tasks_executed;
    ws.busy_fraction =
        s.makespan > sim::SimTime::zero() ? w.busy_seconds / s.makespan.sec() : 0.0;
    s.per_worker.push_back(ws);
    s.total_bytes_transferred += w.bytes_transferred;
  }
  return s;
}

}  // namespace greencap::rt
