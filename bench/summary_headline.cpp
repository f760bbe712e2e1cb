// Section V-D: the paper's headline numbers, regenerated.
//
//   * best efficiency with all GPUs at B: +24.3 % (slowdown 26.41 %)
//   * subset capping trade-off:           +9.28 % (slowdown 12.32 %)
//   * CPU capping adds ~8 % with no performance loss
#include "harness.hpp"
#include "hw/presets.hpp"

using namespace greencap;

namespace {

int run(int argc, char** argv) {
  const bench::Cli cli = bench::Cli::parse(argc, argv);

  // Flagship platform, GEMM double (the paper's headline case).
  const auto row =
      core::paper::table_ii_row("32-AMD-4-A100", core::Operation::kGemm, hw::Precision::kDouble);
  // With --trace-json etc. the HHBB run (the paper's subset-capping case)
  // is the one captured: the unbalanced schedule is the interesting one.
  core::ExperimentConfig hhbb_cfg = bench::experiment_for(row, "HHBB", cli);
  hhbb_cfg.obs = cli.flags.observability();

  // CPU capping leverage on the V100 platform (BB config, GEMM double).
  const auto vrow =
      core::paper::table_ii_row("24-Intel-2-V100", core::Operation::kGemm, hw::Precision::kDouble);
  core::ExperimentConfig vcfg = bench::experiment_for(vrow, "BB", cli);
  core::ExperimentConfig vcfg_capped = vcfg;
  vcfg_capped.cpu_cap = core::CpuCap{core::paper::kCpuCapPackage, core::paper::kCpuCapFraction};

  core::ExperimentResult base, bbbb, hhbb, v_plain, v_capped;
  bench::Campaign campaign{cli};
  auto into = [](core::ExperimentResult& slot) {
    return [&slot](const core::ExperimentResult& r) { slot = r; };
  };
  campaign.add(bench::experiment_for(row, "HHHH", cli), into(base));
  campaign.add(bench::experiment_for(row, "BBBB", cli), into(bbbb));
  campaign.add(std::move(hhbb_cfg), into(hhbb));
  campaign.add(std::move(vcfg), into(v_plain));
  campaign.add(std::move(vcfg_capped), into(v_capped));
  campaign.run();

  core::Table headline{{"finding", "efficiency gain % (ours)", "paper", "slowdown % (ours)",
                        "paper"}};
  headline.add_row({"all GPUs at P_best (BBBB)", core::fmt(bbbb.efficiency_gain_pct(base), 2),
                    "+24.3", core::fmt(-bbbb.perf_delta_pct(base), 2), "26.41"});
  headline.add_row({"subset capping (HHBB)", core::fmt(hhbb.efficiency_gain_pct(base), 2),
                    "+9.28", core::fmt(-hhbb.perf_delta_pct(base), 2), "12.32"});
  headline.add_row({"CPU power capping (BB, cpu1@48%)",
                    core::fmt(v_capped.efficiency_gain_pct(v_plain), 2), "~+8",
                    core::fmt(-v_capped.perf_delta_pct(v_plain), 2), "~0"});

  bench::emit(headline, cli, "Section V-D — headline results");
  cli.write_summary(argv[0]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return greencap::bench::run_guarded([&] { return run(argc, argv); });
}
