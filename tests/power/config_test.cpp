#include "power/config.hpp"

#include <gtest/gtest.h>

#include <set>

namespace greencap::power {
namespace {

TEST(GpuConfig, ParseRoundTrips) {
  for (const char* text : {"HHHH", "HHBB", "LLLL", "HBLB", "B", "hhbb"}) {
    const GpuConfig cfg = GpuConfig::parse(text);
    std::string upper = text;
    for (char& c : upper) c = static_cast<char>(::toupper(c));
    EXPECT_EQ(cfg.to_string(), upper);
  }
}

TEST(GpuConfig, ParseRejectsGarbage) {
  EXPECT_THROW(GpuConfig::parse(""), std::invalid_argument);
  EXPECT_THROW(GpuConfig::parse("HHXB"), std::invalid_argument);
  EXPECT_THROW(GpuConfig::parse("H H"), std::invalid_argument);
}

TEST(GpuConfig, LevelsAccessible) {
  const GpuConfig cfg = GpuConfig::parse("HBL");
  EXPECT_EQ(cfg.size(), 3u);
  EXPECT_EQ(cfg.level(0), Level::kHigh);
  EXPECT_EQ(cfg.level(1), Level::kBest);
  EXPECT_EQ(cfg.level(2), Level::kLow);
  EXPECT_THROW((void)cfg.level(3), std::out_of_range);
}

TEST(GpuConfig, Uniform) {
  EXPECT_EQ(GpuConfig::uniform(4, Level::kBest).to_string(), "BBBB");
  EXPECT_TRUE(GpuConfig::uniform(2, Level::kHigh).is_default());
  EXPECT_FALSE(GpuConfig::uniform(2, Level::kBest).is_default());
}

TEST(GpuConfig, Equality) {
  EXPECT_EQ(GpuConfig::parse("HB"), GpuConfig::parse("hb"));
  EXPECT_FALSE(GpuConfig::parse("HB") == GpuConfig::parse("BH"));
}

TEST(GpuConfig, LevelCharRoundTrip) {
  for (Level l : {Level::kLow, Level::kBest, Level::kHigh}) {
    EXPECT_EQ(level_from_char(to_char(l)), l);
  }
}

TEST(StandardLadder, FourGpusMatchesPaperPresentation) {
  const auto ladder = standard_ladder(4);
  std::vector<std::string> names;
  names.reserve(ladder.size());
  for (const auto& cfg : ladder) names.push_back(cfg.to_string());
  EXPECT_EQ(names, (std::vector<std::string>{"LLLL", "HLLL", "HHLL", "HHHL", "BBBB", "HBBB",
                                             "HHBB", "HHHB", "HHHH"}));
}

TEST(StandardLadder, TwoGpus) {
  const auto ladder = standard_ladder(2);
  std::vector<std::string> names;
  for (const auto& cfg : ladder) names.push_back(cfg.to_string());
  EXPECT_EQ(names, (std::vector<std::string>{"LL", "HL", "BB", "HB", "HH"}));
}

TEST(StandardLadder, EndsWithDefault) {
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    const auto ladder = standard_ladder(n);
    EXPECT_TRUE(ladder.back().is_default());
  }
}

TEST(AllConfigs, CountsArePowersOfThree) {
  EXPECT_EQ(all_configs(1).size(), 3u);
  EXPECT_EQ(all_configs(2).size(), 9u);
  EXPECT_EQ(all_configs(4).size(), 81u);
}

TEST(AllConfigs, AllDistinct) {
  const auto configs = all_configs(3);
  std::set<std::string> seen;
  for (const auto& cfg : configs) {
    seen.insert(cfg.to_string());
  }
  EXPECT_EQ(seen.size(), 27u);
}

TEST(AllConfigs, ContainsPaperPermutations) {
  // "the configuration HHHB was evaluated, as were the combinations HHBH,
  // HBHH and BHHH" — the exhaustive set must contain them all.
  const auto configs = all_configs(4);
  std::set<std::string> seen;
  for (const auto& cfg : configs) seen.insert(cfg.to_string());
  for (const char* perm : {"HHHB", "HHBH", "HBHH", "BHHH"}) {
    EXPECT_TRUE(seen.contains(perm)) << perm;
  }
}

}  // namespace
}  // namespace greencap::power
