// Table II: the per-(platform, operation, precision) parameter selection —
// matrix size, tile size, and the three power states L/B/H, with B
// resolved by our own kernel sweep at the operation's tile size and
// compared against the published % of TDP.
#include "harness.hpp"
#include "hw/presets.hpp"
#include "power/sweep.hpp"

using namespace greencap;

namespace {

int run(int argc, char** argv) {
  const bench::SweepCli cli = bench::SweepCli::parse(argc, argv);

  core::Table table{{"platform", "op", "N", "Nt", "precision", "P_best %TDP (ours)",
                     "P_best %TDP (paper)", "P_best W", "P_min W", "P_max W"}};
  const auto rows = core::paper::table_ii();
  std::vector<power::SweepResult> sweeps(rows.size());
  cli.engine().for_each_index(rows.size(), [&](std::size_t i) {
    const hw::PlatformSpec spec = hw::presets::platform_by_name(rows[i].platform);
    sweeps[i] = power::sweep_gemm_caps(spec.gpus.front(), rows[i].precision, rows[i].nb,
                                       cli.quick ? 4.0 : 2.0);
  });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const auto& sweep = sweeps[i];
    const hw::PlatformSpec spec = hw::presets::platform_by_name(row.platform);
    const hw::GpuArchSpec& gpu = spec.gpus.front();
    table.add_row({row.platform, core::to_string(row.op), std::to_string(row.n),
                   std::to_string(row.nb), hw::to_string(row.precision),
                   core::fmt(sweep.best().cap_pct_tdp, 0),
                   core::fmt(row.published_best_pct_tdp, 0), core::fmt(sweep.best().cap_w, 0),
                   core::fmt(gpu.min_cap_w, 0), core::fmt(gpu.tdp_w, 0)});
  }
  bench::emit(table, cli, "Table II — matrix/tile sizes and GPU power limits per platform");
  cli.write_summary(argv[0]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return greencap::bench::run_guarded([&] { return run(argc, argv); });
}
