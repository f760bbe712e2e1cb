#include "core/experiment.hpp"

#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/run_context.hpp"
#include "la/calibration_sets.hpp"
#include "la/flops.hpp"
#include "la/lq.hpp"
#include "la/lu.hpp"
#include "la/operations.hpp"
#include "la/qr.hpp"
#include "rt/calibration.hpp"

namespace greencap::core {

const char* to_string(Operation op) {
  switch (op) {
    case Operation::kGemm: return "GEMM";
    case Operation::kPotrf: return "POTRF";
    case Operation::kGetrf: return "GETRF";
    case Operation::kGeqrf: return "GEQRF";
    case Operation::kGelqf: return "GELQF";
  }
  return "?";
}

double operation_flops(Operation op, double n) {
  switch (op) {
    case Operation::kGemm: return la::flops::gemm_total(n);
    case Operation::kPotrf: return la::flops::cholesky_total(n);
    case Operation::kGetrf: return la::flops_lu::lu_total(n);
    case Operation::kGeqrf: return la::flops_qr::geqrf_total(n);
    case Operation::kGelqf: return la::flops_lq::gelqf_total(n);
  }
  return 0.0;
}

std::string ExperimentConfig::describe() const {
  std::ostringstream oss;
  oss << platform << ' ' << to_string(op) << ' ' << hw::to_string(precision) << " N=" << n
      << " Nt=" << nb << " cfg=" << (gpu_config.size() ? gpu_config.to_string() : "H*");
  if (cpu_cap) {
    oss << " cpu" << cpu_cap->package << "@" << static_cast<int>(cpu_cap->fraction_of_tdp * 100)
        << "%";
  }
  if (scheduler != "dmdas") {
    oss << " sched=" << scheduler;
  }
  if (stale_models) {
    oss << " stale-models";
  }
  if (!resilience.faults.empty()) {
    oss << " faults=" << resilience.faults;
  }
  return oss.str();
}

double ExperimentResult::perf_delta_pct(const ExperimentResult& baseline) const {
  return baseline.gflops > 0 ? (gflops / baseline.gflops - 1.0) * 100.0 : 0.0;
}

double ExperimentResult::energy_saving_pct(const ExperimentResult& baseline) const {
  return baseline.total_energy_j > 0 ? (1.0 - total_energy_j / baseline.total_energy_j) * 100.0
                                     : 0.0;
}

double ExperimentResult::efficiency_gain_pct(const ExperimentResult& baseline) const {
  return baseline.efficiency_gflops_per_w > 0
             ? (efficiency_gflops_per_w / baseline.efficiency_gflops_per_w - 1.0) * 100.0
             : 0.0;
}

namespace {

/// A calibration campaign can be shared across runs only when nothing can
/// perturb the caps it measures under: fault plans and degradation may
/// leave per-run cap state the cache key cannot see.
bool calibration_shareable(const ExperimentConfig& config) {
  return config.resilience.faults.empty() && !config.resilience.degrade;
}

/// Cache key for a warmup campaign. The measured times are a pure function
/// of the platform, the precision, the tile size, the registered codelet
/// sets (operation), the applied caps, and whether calibration ran before
/// or after capping (stale-model ablation).
std::string calibration_key(const ExperimentConfig& config) {
  std::ostringstream oss;
  oss << "cal|" << config.platform << '|' << hw::to_string(config.precision) << '|' << config.nb
      << '|' << to_string(config.op) << '|'
      << (config.gpu_config.size() ? config.gpu_config.to_string() : "H*");
  if (config.cpu_cap) {
    oss << "|cpu" << config.cpu_cap->package << '@' << config.cpu_cap->fraction_of_tdp;
  }
  oss << "|stale=" << (config.stale_models ? 1 : 0);
  return oss.str();
}

template <typename T>
ExperimentResult run_typed(const ExperimentConfig& config, CheckpointSession* session,
                           const RunServices& services) {
  RunContext ctx{config, services};
  rt::Runtime& runtime = ctx.runtime();

  // -- model calibration -------------------------------------------------------
  la::Codelets<T> codelets;
  la::LuCodelets<T> lu_codelets;
  la::QrCodelets<T> qr_codelets;
  la::LqCodelets<T> lq_codelets;
  rt::Calibrator calibrator{runtime};
  auto calibrate_all = [&] {
    la::calibrate_codelets<T>(calibrator, codelets, {config.nb});
    if (config.op == Operation::kGetrf) {
      la::calibrate_lu_codelets<T>(calibrator, lu_codelets, {config.nb});
    } else if (config.op == Operation::kGeqrf) {
      la::calibrate_qr_codelets<T>(calibrator, qr_codelets, {config.nb});
    } else if (config.op == Operation::kGelqf) {
      la::calibrate_lq_codelets<T>(calibrator, lq_codelets, {config.nb});
    }
  };
  // Warm the history models, via the campaign cache when one is wired in:
  // the first run with a given key measures (recording the exact record()
  // sequence), every later run replays that immutable log — bit-identical
  // model state either way, because calibration never advances the clock.
  auto warm_models = [&] {
    CalibrationCache* cache = ctx.calibration_cache();
    if (cache == nullptr || !calibration_shareable(config)) {
      calibrate_all();
      return;
    }
    bool computed_here = false;
    const rt::CalibrationRecord& record =
        cache->calibration(calibration_key(config), [&] {
          rt::CalibrationRecord fresh;
          calibrator.set_record_sink(&fresh);
          calibrate_all();
          calibrator.set_record_sink(nullptr);
          computed_here = true;
          return fresh;
        });
    if (!computed_here) {
      rt::replay_calibration(runtime, record);
    }
  };
  if (config.stale_models) {
    // Maladaptation ablation: models measured at default power, caps
    // applied afterwards, no recalibration.
    warm_models();
    ctx.apply_caps();
  } else {
    // Paper protocol: caps first, then calibration, so the history models
    // see the capped speeds (section III-B).
    ctx.apply_caps();
    if (config.recalibrate) {
      warm_models();
    }
  }

  ctx.start_resilience(false);

  // -- build the operation's data and task graph -------------------------------
  const bool allocate = config.execute_kernels;
  la::TileMatrix<T> a{config.n, config.nb, allocate, "A"};
  a.register_with(runtime);
  sim::Xoshiro256 rng{config.seed};
  std::optional<la::TileMatrix<T>> b;
  std::optional<la::TileMatrix<T>> c;
  std::optional<la::QrWorkspace<T>> workspace;
  switch (config.op) {
    case Operation::kGemm:
      b.emplace(config.n, config.nb, allocate, "B");
      c.emplace(config.n, config.nb, allocate, "C");
      b->register_with(runtime);
      c->register_with(runtime);
      if (allocate) {
        a.fill_random(rng);
        b->fill_random(rng);
      }
      break;
    case Operation::kPotrf:
      if (allocate) {
        a.make_spd(rng);
      }
      break;
    case Operation::kGetrf:
      if (allocate) {
        a.make_diagonally_dominant(rng);
      }
      break;
    case Operation::kGeqrf:
    case Operation::kGelqf:
      if (allocate) {
        a.fill_random(rng);
        for (std::int64_t i = 0; i < config.n; ++i) {
          a.at(i, i) += T{2};
        }
      }
      workspace.emplace(runtime, a);
      break;
  }

  ctx.begin_measurement();

  switch (config.op) {
    case Operation::kGemm: la::submit_gemm<T>(runtime, codelets, a, *b, *c); break;
    case Operation::kPotrf: la::submit_potrf<T>(runtime, codelets, a); break;
    case Operation::kGetrf: la::submit_getrf<T>(runtime, lu_codelets, a); break;
    case Operation::kGeqrf: la::submit_geqrf<T>(runtime, qr_codelets, a, *workspace); break;
    case Operation::kGelqf: la::submit_gelqf<T>(runtime, lq_codelets, a, *workspace); break;
  }

  // -- checkpoint ticks and hang watchdog ---------------------------------------
  if (session != nullptr) {
    ctx.attach_checkpointer(*session);
  }

  return ctx.finish();
}

void finalize_metrics(ExperimentResult& result) {
  const ExperimentConfig& config = result.config;
  result.time_s = result.stats.makespan.sec();
  const double flops = operation_flops(config.op, static_cast<double>(config.n));
  result.gflops = result.time_s > 0 ? flops / result.time_s / 1e9 : 0.0;
  result.total_energy_j = result.energy.total();
  result.efficiency_gflops_per_w =
      result.total_energy_j > 0 ? flops / result.total_energy_j / 1e9 : 0.0;
  for (const auto& w : result.stats.per_worker) {
    if (w.arch == rt::WorkerArch::kCuda) {
      result.gpu_tasks += w.tasks;
    } else {
      result.cpu_tasks += w.tasks;
    }
  }
  if (result.observability != nullptr && config.obs.metrics) {
    obs::MetricsRegistry& reg = result.observability->metrics;
    reg.gauge("exp.time_s").set(result.time_s);
    reg.gauge("exp.gflops").set(result.gflops);
    reg.gauge("exp.energy_j").set(result.total_energy_j);
    reg.gauge("exp.efficiency_gflops_per_w").set(result.efficiency_gflops_per_w);
  }
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config, const RunServices& services) {
  return run_experiment(config, nullptr, services);
}

ExperimentResult run_experiment(const ExperimentConfig& config, CheckpointSession* session,
                                const RunServices& services) {
  if (config.n <= 0 || config.nb <= 0 || config.n % config.nb != 0) {
    throw std::invalid_argument("run_experiment: n must be a positive multiple of nb");
  }
  ExperimentResult result = config.precision == hw::Precision::kDouble
                                ? run_typed<double>(config, session, services)
                                : run_typed<float>(config, session, services);
  finalize_metrics(result);
  return result;
}

}  // namespace greencap::core
