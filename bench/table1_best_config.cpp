// Table I: best energy-efficiency configuration per GPU and precision
// from the single-kernel GEMM study — measured vs. the published values.
#include "harness.hpp"
#include "hw/presets.hpp"
#include "power/sweep.hpp"

using namespace greencap;

namespace {

int run(int argc, char** argv) {
  const bench::SweepCli cli = bench::SweepCli::parse(argc, argv);

  core::Table table{{"GPU", "precision", "matrix size", "cap %TDP (ours)", "cap %TDP (paper)",
                     "eff saving % (ours)", "eff saving % (paper)", "slowdown %"}};
  const auto rows = core::paper::table_i();
  std::vector<power::SweepResult> sweeps(rows.size());
  cli.engine().for_each_index(rows.size(), [&](std::size_t i) {
    sweeps[i] = power::sweep_gemm_caps(hw::presets::gpu_by_name(rows[i].gpu), rows[i].precision,
                                       rows[i].matrix_size, cli.quick ? 4.0 : 2.0);
  });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const auto& sweep = sweeps[i];
    table.add_row({row.gpu, hw::to_string(row.precision), std::to_string(row.matrix_size),
                   core::fmt(sweep.best().cap_pct_tdp, 0),
                   core::fmt(row.published_best_pct_tdp, 0),
                   core::fmt(sweep.efficiency_saving_pct(), 2),
                   core::fmt(row.published_saving_pct, 2), core::fmt(sweep.slowdown_pct(), 2)});
  }
  bench::emit(table, cli, "Table I — best configuration for energy efficiency per GPU/precision");
  cli.write_summary(argv[0]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return greencap::bench::run_guarded([&] { return run(argc, argv); });
}
