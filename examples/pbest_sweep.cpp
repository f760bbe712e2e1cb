// Find P_best for a GPU archetype by sweeping the power cap over a large
// GEMM kernel — the paper's section II study — and show the raw NVML-style
// facade usage while doing it.
//
//   $ ./pbest_sweep [gpu-name] [matrix-dim]
//     gpu-name: V100-PCIE-32GB | A100-PCIE-40GB | A100-SXM4-40GB (default)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/report.hpp"
#include "hw/presets.hpp"
#include "la/flops.hpp"
#include "nvml/nvml.hpp"
#include "power/sweep.hpp"

using namespace greencap;

int main(int argc, char** argv) {
  const std::string gpu_name = argc > 1 ? argv[1] : "A100-SXM4-40GB";
  const int dim = argc > 2 ? std::atoi(argv[2]) : 5120;
  const hw::GpuArchSpec arch = hw::presets::gpu_by_name(gpu_name);

  // Show what a management tool would see through the NVML facade.
  hw::PlatformSpec spec;
  spec.name = "single-gpu-bench";
  spec.gpus = {arch};
  hw::Platform platform{std::move(spec)};
  sim::Simulator simulator;
  nvml::Context nvml_ctx{platform, simulator};
  auto check = [](nvml::Result r, const char* call) {
    if (r != nvml::Result::kSuccess) {
      std::fprintf(stderr, "%s: %s\n", call, nvml::error_string(r));
      std::exit(1);
    }
  };
  nvml::Device* dev = nullptr;
  check(nvml_ctx.device_handle_by_index(0, &dev), "nvmlDeviceGetHandleByIndex");
  std::string name;
  std::uint32_t min_mw = 0, max_mw = 0;
  check(dev->name(&name), "nvmlDeviceGetName");
  check(dev->power_management_limit_constraints(&min_mw, &max_mw),
        "nvmlDeviceGetPowerManagementLimitConstraints");
  std::printf("NVML device 0: %s — settable power limit %.0f..%.0f W\n", name.c_str(),
              min_mw / 1000.0, max_mw / 1000.0);

  // Sweep (paper methodology: min -> TDP in 2 % steps, one large tile).
  const auto sweep = power::sweep_gemm_caps(arch, hw::Precision::kDouble, dim);
  core::Table table{{"cap W", "% TDP", "Gflop/s", "power W", "energy J", "Gflop/s/W"}};
  for (const auto& p : sweep.points) {
    table.add_row({core::fmt(p.cap_w, 0), core::fmt(p.cap_pct_tdp, 0), core::fmt(p.gflops, 0),
                   core::fmt(p.power_w, 1), core::fmt(p.energy_j, 1),
                   core::fmt(p.efficiency_gflops_per_w, 2)});
  }
  table.print(std::cout);

  std::printf("\nDGEMM %d x %d (%.2e flop):\n", dim, dim, la::flops::gemm(dim));
  std::printf("  P_best = %.0f W (%.0f %% of TDP)\n", sweep.best().cap_w,
              sweep.best().cap_pct_tdp);
  std::printf("  efficiency saving vs default: %.2f %%\n", sweep.efficiency_saving_pct());
  std::printf("  slowdown at P_best:           %.2f %%\n", sweep.slowdown_pct());
  std::printf("\n\"Faster is not equivalent to being energy efficient\" — the efficiency\n"
              "peak sits well below the TDP on every architecture the paper measured.\n");
  return 0;
}
