// The engine's one ordered loop at one and at several jobs: after a failure
// the hook has seen exactly the prefix a serial campaign emits before it,
// and a throwing hook stops the campaign and is rethrown once the pool has
// joined.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace greencap::core {
namespace {

std::vector<ExperimentConfig> gemm_ladder() {
  std::vector<ExperimentConfig> configs;
  for (const char* ladder : {"HHHH", "HHHB", "HHBB", "HBBB", "BBBB", "HHLL"}) {
    ExperimentConfig cfg;
    cfg.platform = "32-AMD-4-A100";
    cfg.op = Operation::kGemm;
    cfg.n = 74880;
    cfg.nb = 5760;
    cfg.gpu_config = power::GpuConfig::parse(ladder);
    configs.push_back(cfg);
  }
  return configs;
}

TEST(OrderedLoop, HookSeesExactlyTheSerialPrefixBeforeAFailure) {
  std::vector<ExperimentConfig> configs = gemm_ladder();
  configs[3].platform = "no-such-platform";
  for (const int jobs : {1, 4}) {
    CampaignEngine engine{EngineOptions{jobs}};
    std::vector<std::size_t> order;
    EXPECT_THROW(
        (void)engine.run(configs, [&](std::size_t i, ExperimentResult&) { order.push_back(i); }),
        std::invalid_argument);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2})) << "jobs " << jobs;
  }
}

TEST(OrderedLoop, ThrowingHookIsRethrownAfterThePoolJoins) {
  const std::vector<ExperimentConfig> configs = gemm_ladder();
  for (const int jobs : {1, 4}) {
    CampaignEngine engine{EngineOptions{jobs}};
    std::vector<std::size_t> order;
    try {
      (void)engine.run(configs, [&](std::size_t i, ExperimentResult&) {
        order.push_back(i);
        if (i == 2) {
          throw std::runtime_error{"hook 2"};
        }
      });
      ADD_FAILURE() << "expected the hook's exception, jobs " << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "hook 2");
    }
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2})) << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace greencap::core
