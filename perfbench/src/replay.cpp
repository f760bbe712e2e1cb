#include "replay.hpp"

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/calibration_cache.hpp"
#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/run_context.hpp"
#include "la/calibration_sets.hpp"
#include "la/lu.hpp"
#include "la/operations.hpp"
#include "la/qr.hpp"
#include "rt/calibration.hpp"
#include "stream.hpp"

namespace perfbench {

namespace core = greencap::core;
namespace hw = greencap::hw;
namespace la = greencap::la;
namespace rt = greencap::rt;
namespace sim = greencap::sim;

RunCounts& RunCounts::operator+=(const RunCounts& other) {
  tasks_submitted += other.tasks_submitted;
  dependency_edges += other.dependency_edges;
  tasks_completed += other.tasks_completed;
  gpu_tasks += other.gpu_tasks;
  sim_events += other.sim_events;
  bytes_transferred += other.bytes_transferred;
  calibrations_measured += other.calibrations_measured;
  cap_write_failures += other.cap_write_failures;
  faults_fired += other.faults_fired;
  degradations += other.degradations;
  ckpt_writes += other.ckpt_writes;
  ckpt_bytes += other.ckpt_bytes;
  trace_bytes += other.trace_bytes;
  trace_spans += other.trace_spans;
  profile_bytes += other.profile_bytes;
  return *this;
}

namespace {

/// Drains the simulator in slices of one checkpoint period, capturing and
/// writing a run checkpoint between slices while tasks remain — the work
/// the library's periodic checkpointer does from inside the event loop.
/// run_until() moves the clock past the last event only while events
/// remain, so the slices leave the run bit-identical to one wait_all().
void execute_with_checkpoints(core::RunContext& ctx, const core::ExperimentConfig& cfg,
                              const Inputs& inputs, SpanLog& log, RunCounts& counts) {
  core::CheckpointSession session{checkpoint_options(inputs, "traced.gckp")};
  const std::filesystem::path file{session.options().path};
  sim::Simulator& simulator = ctx.simulator();
  const sim::SimTime period = sim::SimTime::millis(kCheckpointEveryMs);
  sim::SimTime deadline = simulator.now();
  while (!simulator.idle()) {
    deadline = deadline + period;
    simulator.run_until(deadline);
    if (ctx.runtime().all_tasks_done()) {
      continue;
    }
    const core::ckpt_io::RunState state = [&] {
      const ScopedSpan span{log, "ckpt.capture"};
      return ctx.capture_run_state();
    }();
    {
      const ScopedSpan span{log, "ckpt.write"};
      session.write_run_checkpoint("periodic", cfg, state);
    }
    ++counts.ckpt_writes;
    counts.ckpt_bytes += std::filesystem::file_size(file);
  }
}

/// One run of the library's paper protocol (core/experiment.cpp), one
/// public call per span.
template <typename T>
void replay_run(const Inputs& inputs, const core::ExperimentConfig& cfg,
                const core::RunServices& services, TracedRun& out) {
  if (cfg.stale_models || !cfg.recalibrate || cfg.execute_kernels ||
      cfg.op == core::Operation::kGelqf) {
    throw std::invalid_argument("traced replay does not cover " + cfg.describe());
  }
  SpanLog& log = out.spans;
  RunCounts& counts = out.counts;
  const ScopedSpan run_span{log, "run"};

  std::optional<core::RunContext> ctx;
  {
    const ScopedSpan span{log, "core.context"};
    ctx.emplace(cfg, services);
  }
  rt::Runtime& runtime = ctx->runtime();
  {
    const ScopedSpan span{log, "power.apply"};
    ctx->apply_caps();
  }

  la::Codelets<T> codelets;
  la::LuCodelets<T> lu_codelets;
  la::QrCodelets<T> qr_codelets;
  rt::Calibrator calibrator{runtime};
  {
    const ScopedSpan span{log, "rt.calibrate"};
    auto calibrate_all = [&] {
      la::calibrate_codelets<T>(calibrator, codelets, {cfg.nb});
      if (cfg.op == core::Operation::kGetrf) {
        la::calibrate_lu_codelets<T>(calibrator, lu_codelets, {cfg.nb});
      } else if (cfg.op == core::Operation::kGeqrf) {
        la::calibrate_qr_codelets<T>(calibrator, qr_codelets, {cfg.nb});
      }
    };
    core::CalibrationCache* cache = ctx->calibration_cache();
    const bool shareable = cfg.resilience.faults.empty() && !cfg.resilience.degrade;
    if (cache == nullptr || !shareable) {
      calibrate_all();
      counts.calibrations_measured = 1;
    } else {
      bool measured = false;
      const rt::CalibrationRecord& record = cache->calibration(calibration_key(cfg), [&] {
        rt::CalibrationRecord fresh;
        calibrator.set_record_sink(&fresh);
        calibrate_all();
        calibrator.set_record_sink(nullptr);
        measured = true;
        return fresh;
      });
      if (!measured) {
        rt::replay_calibration(runtime, record);
      }
      counts.calibrations_measured = measured ? 1 : 0;
    }
  }
  {
    const ScopedSpan span{log, "core.protocol"};
    ctx->start_resilience(false);
  }

  std::optional<la::TileMatrix<T>> a;
  std::optional<la::TileMatrix<T>> b;
  std::optional<la::TileMatrix<T>> c;
  std::optional<la::QrWorkspace<T>> workspace;
  {
    const ScopedSpan span{log, "la.submit"};
    a.emplace(cfg.n, cfg.nb, false, "A");
    a->register_with(runtime);
    if (cfg.op == core::Operation::kGemm) {
      b.emplace(cfg.n, cfg.nb, false, "B");
      c.emplace(cfg.n, cfg.nb, false, "C");
      b->register_with(runtime);
      c->register_with(runtime);
    } else if (cfg.op == core::Operation::kGeqrf) {
      workspace.emplace(runtime, *a);
    }
  }
  {
    const ScopedSpan span{log, "core.protocol"};
    ctx->begin_measurement();
  }
  {
    const ScopedSpan span{log, "la.submit"};
    switch (cfg.op) {
      case core::Operation::kGemm: la::submit_gemm<T>(runtime, codelets, *a, *b, *c); break;
      case core::Operation::kPotrf: la::submit_potrf<T>(runtime, codelets, *a); break;
      case core::Operation::kGetrf: la::submit_getrf<T>(runtime, lu_codelets, *a); break;
      case core::Operation::kGeqrf:
        la::submit_geqrf<T>(runtime, qr_codelets, *a, *workspace);
        break;
      case core::Operation::kGelqf: break;  // rejected above
    }
  }

  core::ExperimentResult result;
  {
    const ScopedSpan span{log, "rt.execute"};
    if (inputs.workload == Workload::kResilientObserved) {
      execute_with_checkpoints(*ctx, cfg, inputs, log, counts);
    } else {
      // Nothing to checkpoint: the spans time the empty phase, so every
      // layer reports a measured value on every workload.
      { const ScopedSpan capture{log, "ckpt.capture"}; }
      { const ScopedSpan write{log, "ckpt.write"}; }
    }
    result = ctx->finish();
  }

  // The four digest fields, computed as the library's result does.
  RunDigest& digest = out.digest;
  digest.time_s = result.stats.makespan.sec();
  digest.total_energy_j = result.energy.total();
  digest.tasks_completed = result.stats.tasks_completed;
  for (const rt::RuntimeStats::WorkerStats& w : result.stats.per_worker) {
    if (w.arch == rt::WorkerArch::kCuda) {
      digest.gpu_tasks += w.tasks;
    }
  }

  counts.tasks_submitted = result.stats.tasks_submitted;
  counts.dependency_edges = result.stats.dependency_edges;
  counts.tasks_completed = result.stats.tasks_completed;
  counts.gpu_tasks = digest.gpu_tasks;
  counts.sim_events = ctx->simulator().executed_events();
  counts.bytes_transferred = result.stats.total_bytes_transferred;
  const auto& fired = result.fault_counts;
  counts.cap_write_failures = fired.cap_write_failures;
  counts.faults_fired =
      fired.cap_write_failures + fired.drifts + fired.energy_resets + fired.dropouts;
  counts.degradations = result.degradation.size();

  // Export phases run on every workload; without captured data they are empty.
  const core::ObservabilityData* data = result.observability.get();
  {
    const ScopedSpan span{log, "obs.export"};
    if (data != nullptr && cfg.obs.trace) {
      counts.trace_spans = data->trace.spans().size();
      counts.trace_bytes = export_trace(*data, inputs.scratch);
      (void)export_metrics(*data, inputs.scratch);
    }
  }
  std::optional<greencap::prof::Profile> profile;
  {
    const ScopedSpan span{log, "prof.analyze"};
    if (data != nullptr && cfg.obs.profile) {
      profile.emplace(analyze_profile(*data));
    }
  }
  {
    const ScopedSpan span{log, "prof.write"};
    if (profile) {
      counts.profile_bytes = export_profile(*profile, inputs.scratch);
    }
  }
}

}  // namespace

TracedPass run_traced_pass(const Inputs& inputs, std::uint32_t first_run_id) {
  const std::size_t n = inputs.configs.size();
  TracedPass pass;
  pass.runs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pass.runs.push_back(TracedRun{{}, SpanLog{first_run_id + static_cast<std::uint32_t>(i)}, {}});
  }
  core::EngineOptions options;
  options.jobs = inputs.jobs;
  core::CampaignEngine engine{options};
  core::RunServices services;
  services.calibration = inputs.shared_cache ? &engine.cache() : nullptr;

  const std::int64_t start = now_ns();
  engine.for_each_index(n, [&](std::size_t i) {
    const core::ExperimentConfig& cfg = inputs.configs[i];
    if (cfg.precision == hw::Precision::kDouble) {
      replay_run<double>(inputs, cfg, services, pass.runs[i]);
    } else {
      replay_run<float>(inputs, cfg, services, pass.runs[i]);
    }
  });
  pass.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  pass.cache_hits = engine.cache().hits();
  pass.cache_misses = engine.cache().misses();
  return pass;
}

std::vector<RunDigest> digests_of(const TracedPass& pass) {
  std::vector<RunDigest> out;
  out.reserve(pass.runs.size());
  for (const TracedRun& run : pass.runs) {
    out.push_back(run.digest);
  }
  return out;
}

}  // namespace perfbench
