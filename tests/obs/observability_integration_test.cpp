// End-to-end observability: one experiment run with everything enabled
// must yield a consistent trace, metrics, telemetry and decision log —
// and, crucially, telemetry that agrees with the exact energy accounting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "obs/trace_export.hpp"

namespace greencap::core {
namespace {

ExperimentConfig small_potrf() {
  ExperimentConfig cfg;
  cfg.platform = "32-AMD-4-A100";
  cfg.op = Operation::kPotrf;
  cfg.precision = hw::Precision::kDouble;
  cfg.nb = 2880;
  cfg.n = 2880 * 8;
  cfg.gpu_config = power::GpuConfig::parse("HHBB");  // unbalanced: caps change
  return cfg;
}

class ObservabilityRun : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentConfig cfg = small_potrf();
    cfg.obs.trace = true;
    cfg.obs.metrics = true;
    cfg.obs.decision_log = true;
    cfg.obs.telemetry_period_ms = 5.0;
    result_ = new ExperimentResult{run_experiment(cfg)};
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }

  static const ExperimentResult& result() { return *result_; }
  static const ObservabilityData& data() { return *result_->observability; }

 private:
  static ExperimentResult* result_;
};

ExperimentResult* ObservabilityRun::result_ = nullptr;

TEST_F(ObservabilityRun, ArtifactsArePopulated) {
  ASSERT_NE(result().observability, nullptr);
  EXPECT_FALSE(data().trace.spans().empty());
  EXPECT_FALSE(data().metrics.empty());
  EXPECT_FALSE(data().telemetry.empty());
  EXPECT_FALSE(data().decisions.empty());
  EXPECT_FALSE(data().worker_names.empty());
}

TEST_F(ObservabilityRun, TraceScheduleIsConsistent) {
  EXPECT_TRUE(data().trace.resource_spans_disjoint());
  // The HHBB config applies caps, which must appear as markers.
  bool saw_cap_marker = false;
  for (const auto& m : data().trace.markers()) {
    saw_cap_marker |= m.name.find("power_cap") != std::string::npos;
  }
  EXPECT_TRUE(saw_cap_marker);
}

TEST_F(ObservabilityRun, MetricsAgreeWithRuntimeStats) {
  const obs::MetricsRegistry& reg = data().metrics;
  const obs::Counter* completed = reg.find_counter("rt.tasks_completed");
  ASSERT_NE(completed, nullptr);
  // The counter sees calibration tasks too, so it can only exceed the
  // measured operation's own task count.
  EXPECT_GE(completed->value(), result().stats.tasks_completed);
  const obs::Histogram* exec = reg.find_histogram("rt.exec_s.dpotrf");
  ASSERT_NE(exec, nullptr);
  EXPECT_GT(exec->count(), 0u);
  EXPECT_GT(exec->mean(), 0.0);
  EXPECT_GT(reg.find_gauge("exp.gflops")->value(), 0.0);
}

// The acceptance bar for the telemetry sampler: integrating each GPU's
// power channel over the run reproduces the energy meter within 1 %.
TEST_F(ObservabilityRun, PowerIntegralMatchesEnergyMeterWithin1Pct) {
  const obs::TelemetrySeries& series = data().telemetry;
  ASSERT_GE(series.samples().size(), 3u);
  for (std::size_t g = 0; g < result().energy.gpu_joules.size(); ++g) {
    const auto chan = series.channel_index("gpu" + std::to_string(g) + ".power_w");
    ASSERT_GE(chan, 0);
    const double integral = series.integrate(static_cast<std::size_t>(chan));
    const double meter = result().energy.gpu_joules[g];
    ASSERT_GT(meter, 0.0);
    EXPECT_NEAR(integral, meter, 0.01 * meter) << "gpu" << g;
  }
  double cpu_integral = 0.0, cpu_meter = 0.0;
  for (std::size_t p = 0; p < result().energy.cpu_joules.size(); ++p) {
    const auto chan = series.channel_index("cpu" + std::to_string(p) + ".power_w");
    ASSERT_GE(chan, 0);
    cpu_integral += series.integrate(static_cast<std::size_t>(chan));
    cpu_meter += result().energy.cpu_joules[p];
  }
  EXPECT_NEAR(cpu_integral, cpu_meter, 0.01 * cpu_meter);
}

TEST_F(ObservabilityRun, DecisionsRealizedAndModelsAccurate) {
  const obs::DecisionLog& log = data().decisions;
  std::size_t realized = 0;
  for (const obs::Decision& d : log.decisions()) {
    EXPECT_GE(d.chosen_worker, 0);
    EXPECT_FALSE(d.codelet.empty());
    EXPECT_GE(d.queue_wait_s, 0.0);
    if (d.realized()) ++realized;
  }
  EXPECT_EQ(realized, log.size());  // every dispatched task retired
  // Noise-free simulation + freshly calibrated models: expectations are
  // essentially exact, which is what "recalibration informs the
  // scheduler" looks like in the log.
  EXPECT_LT(log.overall_mean_rel_error(), 0.05);
  EXPECT_FALSE(log.accuracy_report().empty());
}

TEST_F(ObservabilityRun, ExportsProduceOutput) {
  std::ostringstream trace_json;
  obs::ChromeTraceOptions opts;
  opts.telemetry = &data().telemetry;
  opts.worker_names = data().worker_names;
  obs::write_chrome_trace(trace_json, data().trace, opts);
  EXPECT_GT(trace_json.str().size(), 1000u);
  EXPECT_NE(trace_json.str().find("\"ph\": \"C\""), std::string::npos);

  std::ostringstream decisions;
  data().decisions.write_json(decisions);
  EXPECT_NE(decisions.str().find("\"alternatives\""), std::string::npos);
}

TEST(ObservabilityOff, ResultCarriesNoArtifacts) {
  const ExperimentResult r = run_experiment(small_potrf());
  EXPECT_EQ(r.observability, nullptr);
  EXPECT_GT(r.gflops, 0.0);
}

TEST(ObservabilityOff, ResultsIdenticalWithAndWithoutObservability) {
  ExperimentConfig plain = small_potrf();
  ExperimentConfig observed = small_potrf();
  observed.obs.trace = true;
  observed.obs.metrics = true;
  observed.obs.decision_log = true;
  observed.obs.telemetry_period_ms = 2.0;
  const ExperimentResult a = run_experiment(plain);
  const ExperimentResult b = run_experiment(observed);
  // Observation must not perturb the simulation: same schedule, same
  // makespan. Energy may differ in the last ulps only — the telemetry
  // probes advance the (exact) meters at intermediate instants, which
  // reorders the floating-point accumulation.
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.gpu_tasks, b.gpu_tasks);
  EXPECT_EQ(a.cpu_tasks, b.cpu_tasks);
  EXPECT_NEAR(a.total_energy_j, b.total_energy_j, 1e-9 * a.total_energy_j);
}

TEST(TelemetryCsv, NumbersMatchTheJsonExport) {
  // The CLI's HHBB POTRF run with --telemetry-csv and --telemetry-json.
  ExperimentConfig cfg = small_potrf();
  cfg.obs.telemetry_period_ms = 10.0;
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_NE(r.observability, nullptr);
  const obs::TelemetrySeries& series = r.observability->telemetry;
  const auto& channels = series.channels();
  std::size_t column = 0;
  while (column < channels.size() && channels[column].name != "gpu0.energy_j") ++column;
  ASSERT_LT(column, channels.size());

  std::ostringstream csv;
  series.write_csv(csv);
  const std::string text = csv.str();
  const std::size_t row_at = text.rfind('\n', text.size() - 2) + 1;
  std::istringstream last_row{text.substr(row_at)};
  std::string cell;
  for (std::size_t i = 0; i <= column + 1; ++i) std::getline(last_row, cell, ',');
  EXPECT_EQ(cell, "43.4272424");

  std::ostringstream json;
  series.write_json(json);
  EXPECT_NE(json.str().find(", " + cell + ","), std::string::npos)
      << "the JSON export writes the CSV's " << cell;
}

}  // namespace
}  // namespace greencap::core
