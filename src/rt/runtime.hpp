// The task runtime: StarPU-like execution of a task DAG over a simulated
// heterogeneous node.
//
// Applications register data handles, submit tasks (codelet + accesses +
// priority) and wait_all(). The runtime infers dependencies from access
// modes, hands ready tasks to the configured scheduler, stages data over
// the PCIe/NVLink models, advances the virtual clock through the
// discrete-event simulator and drives the device power/energy models.
// Kernels can optionally really execute on the host (execute_kernels),
// which is how the test suite validates numerics end-to-end.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/degradation.hpp"
#include "fault/injector.hpp"
#include "hw/platform.hpp"
#include "obs/decision_log.hpp"
#include "obs/metrics.hpp"
#include "rt/codelet.hpp"
#include "rt/data_handle.hpp"
#include "rt/dependencies.hpp"
#include "rt/perf_model.hpp"
#include "rt/scheduler.hpp"
#include "rt/task.hpp"
#include "rt/types.hpp"
#include "rt/worker.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace greencap::obs {
class TelemetrySampler;
}

namespace greencap::prof {
struct RunCapture;
}

namespace greencap::rt {

struct RuntimeOptions {
  /// One of: eager, random, ws, dm, dmda, dmdas.
  std::string scheduler = "dmdas";
  /// Actually run kernel host functions (numerical validation mode).
  bool execute_kernels = false;
  /// Reserve one CPU core per GPU as its driver (StarPU's default).
  bool dedicate_core_per_gpu = true;
  /// Relative std-dev of multiplicative Gaussian noise on execution times
  /// (0 = fully deterministic).
  double exec_noise_rel = 0.0;
  /// Feed every observed execution back into the history model (StarPU's
  /// behaviour). Disable to freeze the models at their calibrated state —
  /// used by the stale-model ablation.
  bool update_perf_model = true;
  /// Stage a task's inputs as soon as the scheduler assigns it to a worker
  /// queue (StarPU's data prefetching), overlapping transfers with the
  /// tasks ahead of it instead of paying them at execution start.
  bool prefetch = false;
  std::uint64_t seed = 42;
  /// Record spans into trace() (off by default: sweeps run thousands of
  /// simulations).
  bool enable_trace = false;
  /// Record per-task attributed device power for the energy profiler
  /// (prof::). Off by default: one model read per task start when on,
  /// nothing at all when off.
  bool profile = false;
  /// Optional metrics registry (not owned). When set, the runtime
  /// registers task/transfer counters and per-codelet execution-time and
  /// queue-wait histograms. Null keeps the hot path untouched.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional scheduler decision log (not owned). When set, every
  /// dispatch records the chosen worker, the per-worker expected
  /// durations/energies, and — at completion — the realized duration.
  obs::DecisionLog* decision_log = nullptr;
  /// Optional fault injector (not owned). The runtime subscribes to GPU
  /// dropout (quarantine + requeue), applies straggler slowdowns to CUDA
  /// executions, and cancels the injector's pending timed faults when the
  /// DAG drains. Null keeps every path byte-identical to an uninjected run.
  fault::FaultInjector* faults = nullptr;
  /// Optional degradation report (not owned) for quarantine/requeue events.
  fault::DegradationReport* degradation = nullptr;
};

struct TaskDesc {
  const Codelet* codelet = nullptr;
  std::vector<TaskAccess> accesses;
  hw::KernelWork work;
  std::int64_t priority = 0;
  std::string label;
  /// Kernel argument pack forwarded to Task::arg.
  std::any arg;
  /// Explicit predecessor tasks (StarPU's tag dependencies), on top of the
  /// data dependencies inferred from access modes. Each id must reference
  /// an earlier submission.
  std::vector<TaskId> explicit_deps;
};

struct RuntimeStats {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t dependency_edges = 0;
  sim::SimTime makespan;
  std::uint64_t total_bytes_transferred = 0;
  /// Per-worker: tasks executed and busy fraction of the makespan.
  struct WorkerStats {
    WorkerId id = -1;
    WorkerArch arch = WorkerArch::kCpuCore;
    std::uint64_t tasks = 0;
    double busy_fraction = 0.0;
  };
  std::vector<WorkerStats> per_worker;
};

class Runtime final : public SchedulerContext {
 public:
  Runtime(hw::Platform& platform, sim::Simulator& sim, RuntimeOptions options = {});
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // -- data ----------------------------------------------------------------

  /// Registers application data living at `host_ptr` (may be null for
  /// timing-only simulations). Returns a handle owned by the runtime.
  DataHandle* register_data(std::uint64_t bytes, void* host_ptr = nullptr,
                            std::string name = {});

  // -- tasks -----------------------------------------------------------------

  TaskId submit(TaskDesc desc);

  /// Runs the simulation until every submitted task has completed.
  /// Throws std::runtime_error on deadlock (tasks stuck with unresolved
  /// dependencies — indicates an inconsistent DAG).
  void wait_all();

  /// Gathers every handle back to host memory (Chameleon's end-of-routine
  /// tile gather / StarPU's data acquire): books the required
  /// device-to-host transfers on the links and advances the virtual clock
  /// until they complete. Returns the completion time. Call after
  /// wait_all().
  sim::SimTime flush_to_host();

  // -- introspection ---------------------------------------------------------

  [[nodiscard]] const hw::Platform& platform() const { return platform_; }
  [[nodiscard]] hw::Platform& platform() { return platform_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const RuntimeOptions& options() const { return options_; }
  [[nodiscard]] HistoryPerfModel& perf_model() { return perf_model_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] RuntimeStats stats() const;
  /// Useful flops retired so far (sum of completed tasks' work) — the
  /// observable an online efficiency controller divides by joules.
  [[nodiscard]] double flops_completed() const { return flops_completed_; }
  [[nodiscard]] bool all_tasks_done() const { return tasks_completed_ == tasks_.size(); }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  [[nodiscard]] const Worker& worker(std::size_t i) const { return workers_.at(i); }
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] const Task& task(TaskId id) const { return *tasks_.at(id); }

  /// Ground-truth execution time (device model + launch overhead, no
  /// noise) — the oracle the calibrator samples and the estimator's
  /// fallback for uncalibrated entries.
  [[nodiscard]] sim::SimTime oracle_exec_time(const Codelet& codelet, const hw::KernelWork& work,
                                              const Worker& worker) const;

  // -- observability ---------------------------------------------------------

  /// Registers runtime-level telemetry channels on `sampler`: number of
  /// busy workers (total and CUDA-only), ready-queue depth, and tasks
  /// completed. The runtime must outlive the sampler's run.
  void register_telemetry(obs::TelemetrySampler& sampler);

  /// Worker row labels for trace export, indexed by worker id.
  [[nodiscard]] std::vector<std::string> worker_names() const;

  /// Fills `capture.workers` and `capture.tasks` (realized spans, final
  /// attempts only, with dependency edges inverted to predecessor lists)
  /// for the energy-attribution profiler. Run metadata and device records
  /// are the caller's job — it still holds the platform and power config.
  void export_capture(prof::RunCapture& capture) const;

  // -- resilience ------------------------------------------------------------

  /// Registers a callback to run (once per drain) at the instant the last
  /// submitted task retires — before wait_all() returns. Used to stop
  /// repeating activities (cap reconciliation, pending fault events) that
  /// would otherwise keep the simulator from going idle or stretch the
  /// virtual timeline past the makespan.
  void add_drain_hook(std::function<void()> hook);

  /// Drops one worker's perf-model history so dm-family schedulers re-adapt
  /// to a device whose effective power state changed (reconciliation
  /// re-assert, throttling). `gpu` is the platform GPU index.
  void invalidate_gpu_history(std::size_t gpu);

  /// Removes `gpu`'s worker from service at `now`: cancels and requeues its
  /// in-flight task, drains its queue back to the scheduler, invalidates
  /// coherence copies held on the dead device (refetching from host) and
  /// its perf-model history. Idempotent per GPU. Wired automatically to
  /// RuntimeOptions::faults dropout events.
  void handle_dropout(int gpu, sim::SimTime now);

  // -- SchedulerContext ------------------------------------------------------
  [[nodiscard]] std::vector<Worker>& workers() override { return workers_; }
  [[nodiscard]] sim::SimTime now() const override { return sim_.now(); }
  [[nodiscard]] sim::Xoshiro256& rng() override { return rng_; }
  [[nodiscard]] sim::SimTime estimate_exec(const Task& task, const Worker& worker) override;
  void expected_exec_row(const Task& task, std::span<double> out) override;
  [[nodiscard]] sim::SimTime estimate_transfer(const Task& task, const Worker& worker) override;
  [[nodiscard]] double locality_fraction(const Task& task, const Worker& worker) override;
  [[nodiscard]] double estimate_energy(const Task& task, const Worker& worker) override;

 private:
  void build_workers();
  void make_ready(Task& task);
  void wake_all_idle();
  void try_start(Worker& worker);
  /// Books the transfers needed by `task` on `worker`, returning the
  /// virtual time at which all inputs are resident.
  sim::SimTime stage_data(Task& task, Worker& worker);
  /// Schedules the begin/end event of `worker`'s in-flight task.
  sim::EventId schedule_begin(Worker& worker);
  sim::EventId schedule_end(Worker& worker);
  void begin_execution(Task& task, Worker& worker);
  void finish_task(Task& task, Worker& worker);
  [[nodiscard]] sim::SimTime actual_exec_time(Task& task, const Worker& worker);
  void record_decision(Task& task, Worker& worker);

  /// Per-codelet execution-time and queue-wait histograms, registered at
  /// the codelet's first completion and cached by codelet id so later
  /// completions skip the name lookups.
  struct CodeletHistograms {
    obs::Histogram* exec_s = nullptr;
    obs::Histogram* queue_wait_s = nullptr;
  };
  [[nodiscard]] const CodeletHistograms& codelet_histograms(const Task& task);

  hw::Platform& platform_;
  sim::Simulator& sim_;
  RuntimeOptions options_;
  std::unique_ptr<Scheduler> scheduler_;
  HistoryPerfModel perf_model_;
  sim::Xoshiro256 rng_;
  sim::Trace trace_;

  std::vector<Worker> workers_;
  std::vector<std::unique_ptr<DataHandle>> handles_;
  std::vector<std::unique_ptr<Task>> tasks_;
  /// Perf-model id of each codelet submitted so far: one intern per name.
  std::vector<std::pair<const Codelet*, CodeletId>> codelet_ids_;
  /// record_decision's per-worker expected_exec_row buffer.
  std::vector<double> decision_row_;
  DependencyTracker deps_;
  /// Per-GPU link availability (index = GPU index).
  std::vector<sim::SimTime> link_free_;
  std::uint64_t tasks_completed_ = 0;
  double flops_completed_ = 0.0;
  sim::SimTime last_completion_;
  std::vector<std::function<void()>> drain_hooks_;
  bool drained_ = false;

  // Cached metric handles (null when options_.metrics is null) so the
  // execution path pays one pointer test, not a map lookup.
  obs::Counter* m_tasks_submitted_ = nullptr;
  obs::Counter* m_tasks_completed_ = nullptr;
  obs::Counter* m_transfers_ = nullptr;
  obs::Counter* m_bytes_transferred_ = nullptr;
  /// Indexed by CodeletId; filled at each codelet's first completion.
  std::vector<CodeletHistograms> m_codelet_histograms_;
  /// Sampler to close out when the last task retires; set by
  /// register_telemetry, never owned.
  obs::TelemetrySampler* telemetry_ = nullptr;
};

}  // namespace greencap::rt
