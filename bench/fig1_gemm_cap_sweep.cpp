// Figure 1: power-capping impact on energy efficiency, performance and
// energy for cuBLAS GEMM on A100-SXM4-40GB, across matrix sizes, single
// and double precision. The power cap varies from the hardware minimum
// (104 W in the paper's plot, 100 W here) to 400 W.
#include "harness.hpp"
#include "hw/presets.hpp"
#include "power/sweep.hpp"

using namespace greencap;

namespace {

void sweep_table(const bench::SweepCli& cli, hw::Precision precision) {
  const hw::GpuArchSpec arch = hw::presets::a100_sxm4();
  const std::vector<int> sizes = {1024, 2048, 3072, 4096, 5120};
  const double step = cli.quick ? 10.0 : 2.0;

  // One column block per matrix size, mirroring the paper's per-size curves.
  std::vector<std::string> headers = {"cap W", "cap %TDP"};
  for (int n : sizes) {
    headers.push_back("eff@" + std::to_string(n));
    headers.push_back("Gf/s@" + std::to_string(n));
    headers.push_back("J@" + std::to_string(n));
  }
  core::Table table{headers};

  std::vector<power::SweepResult> sweeps(sizes.size());
  cli.engine().for_each_index(sizes.size(), [&](std::size_t i) {
    sweeps[i] = power::sweep_gemm_caps(arch, precision, sizes[i], step);
  });
  for (std::size_t p = 0; p < sweeps[0].points.size(); ++p) {
    std::vector<std::string> row = {core::fmt(sweeps[0].points[p].cap_w, 0),
                                    core::fmt(sweeps[0].points[p].cap_pct_tdp, 0)};
    for (const auto& sweep : sweeps) {
      const auto& point = sweep.points[p];
      row.push_back(core::fmt(point.efficiency_gflops_per_w, 1));
      row.push_back(core::fmt(point.gflops, 0));
      row.push_back(core::fmt(point.energy_j, 1));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table, cli,
              std::string("Fig. 1 — GEMM cap sweep on A100-SXM4-40GB (") +
                  hw::to_string(precision) + " precision)");

  core::Table peaks{{"size", "best cap W", "best %TDP", "eff saving %", "slowdown %"}};
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    peaks.add_row({std::to_string(sizes[s]), core::fmt(sweeps[s].best().cap_w, 0),
                   core::fmt(sweeps[s].best().cap_pct_tdp, 0),
                   core::fmt(sweeps[s].efficiency_saving_pct(), 2),
                   core::fmt(sweeps[s].slowdown_pct(), 2)});
  }
  bench::emit(peaks, cli,
              std::string("Fig. 1 — efficiency peaks per size (") + hw::to_string(precision) +
                  ")");
}

}  // namespace

namespace {

int run(int argc, char** argv) {
  const bench::SweepCli cli = bench::SweepCli::parse(argc, argv);
  sweep_table(cli, hw::Precision::kDouble);
  sweep_table(cli, hw::Precision::kSingle);
  std::cout << "\nPaper anchors: double peak at 54 % TDP (saving 28.81 %, slowdown 22.93 %); "
               "single peak at 40 % TDP (saving 27.76 %).\n";
  cli.write_summary(argv[0]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return greencap::bench::run_guarded([&] { return run(argc, argv); });
}
