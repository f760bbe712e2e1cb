// Periodic-tick cadence, interrupt-at-tick, and hang-watchdog semantics of
// the Checkpointer, against a bare Simulator.
#include "ckpt/checkpointer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/signal.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ckpt = greencap::ckpt;
namespace sim = greencap::sim;

namespace {

class CheckpointerTest : public ::testing::Test {
 protected:
  void TearDown() override { ckpt::clear_interrupt(); }

  sim::Simulator simulator;
  std::vector<std::string> reasons;
  std::uint64_t progress = 0;

  ckpt::Checkpointer make(double period_ms, double watchdog_ms) {
    ckpt::Checkpointer::Options opts;
    opts.period = sim::SimTime::millis(period_ms);
    opts.watchdog = sim::SimTime::millis(watchdog_ms);
    return ckpt::Checkpointer{
        simulator, opts, [this](const char* reason) { reasons.emplace_back(reason); },
        [this] { return progress; }};
  }
};

TEST_F(CheckpointerTest, PeriodicTicksFireEveryPeriod) {
  ckpt::Checkpointer cp = make(10.0, 0.0);
  cp.arm();
  simulator.run_until(sim::SimTime::millis(45.0));
  EXPECT_EQ(reasons, (std::vector<std::string>{"periodic", "periodic", "periodic", "periodic"}));
  EXPECT_TRUE(cp.tick_armed());
  EXPECT_FALSE(cp.watchdog_armed());
  cp.cancel();
  EXPECT_FALSE(cp.tick_armed());
}

TEST_F(CheckpointerTest, CancelStopsFutureTicks) {
  ckpt::Checkpointer cp = make(10.0, 0.0);
  cp.arm();
  simulator.run_until(sim::SimTime::millis(15.0));
  cp.cancel();
  simulator.run_until(sim::SimTime::millis(100.0));
  EXPECT_EQ(reasons.size(), 1u);
}

TEST_F(CheckpointerTest, InterruptLatchWritesSignalCheckpointAndThrows) {
  ckpt::Checkpointer cp = make(10.0, 0.0);
  cp.arm();
  simulator.run_until(sim::SimTime::millis(15.0));
  ckpt::request_interrupt();
  EXPECT_THROW(simulator.run_until(sim::SimTime::millis(50.0)), ckpt::InterruptedError);
  EXPECT_EQ(reasons, (std::vector<std::string>{"periodic", "signal"}));
}

TEST_F(CheckpointerTest, WatchdogFiresWhenProgressStalls) {
  ckpt::Checkpointer cp = make(0.0, 20.0);
  cp.arm();
  // One window with progress, then a stall.
  progress = 5;
  simulator.run_until(sim::SimTime::millis(25.0));
  try {
    simulator.run_until(sim::SimTime::millis(100.0));
    FAIL() << "expected HangError";
  } catch (const ckpt::HangError& e) {
    EXPECT_NE(std::string{e.what()}.find("20"), std::string::npos) << e.what();
  }
  EXPECT_EQ(reasons, (std::vector<std::string>{"watchdog"}));
  EXPECT_EQ(simulator.now(), sim::SimTime::millis(40.0));
}

TEST_F(CheckpointerTest, WatchdogStaysQuietWhileProgressAdvances) {
  ckpt::Checkpointer cp = make(0.0, 10.0);
  cp.arm();
  for (int i = 1; i <= 20; ++i) {
    progress = static_cast<std::uint64_t>(i);
    simulator.run_until(sim::SimTime::millis(10.0 * i + 5.0));
  }
  EXPECT_TRUE(reasons.empty());
  EXPECT_TRUE(cp.watchdog_armed());
  cp.cancel();
}

}  // namespace
