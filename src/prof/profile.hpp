// The assembled profile: every prof:: analysis over one run, plus the
// machine-readable profile.json export (schema:
// tools/schema/profile.schema.json, documented in docs/PROFILING.md).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "prof/attribution.hpp"
#include "prof/capture.hpp"
#include "prof/critical_path.hpp"
#include "prof/efficiency.hpp"

namespace greencap::obs {
class DecisionLog;
class JsonWriter;
class TelemetrySeries;
}

namespace greencap::prof {

/// Optional PR 1 observability structures folded into the report when the
/// run captured them (model accuracy, peak node power). Null = omitted.
struct AnalyzeOptions {
  const obs::DecisionLog* decisions = nullptr;
  const obs::TelemetrySeries* telemetry = nullptr;
};

/// One (codelet, arch) row of the perf-model accuracy summary.
struct ModelAccuracyRow {
  std::string codelet;
  std::string arch;
  std::uint64_t samples = 0;
  double mean_rel_error = 0.0;
};

struct Profile {
  RunCapture capture;
  RunMetrics metrics;
  AttributionResult attribution;
  CriticalPathResult critical_path;
  std::vector<EfficiencyCell> efficiency;
  std::vector<WhatIfEntry> whatif;
  std::vector<ModelAccuracyRow> model_accuracy;  ///< empty without a decision log
  double peak_node_power_w = 0.0;                ///< 0 without telemetry

  /// Writes profile.json (stable schema, schema_version bumped on change).
  void write_json(std::ostream& os) const;
  /// The same document into a caller's writer (the HTML report streams it
  /// into its data island).
  void write_json(obs::JsonWriter& w) const;
};

/// Runs every analysis over `capture`. The capture is copied into the
/// profile so the result owns all data it reports.
[[nodiscard]] Profile analyze(const RunCapture& capture, const AnalyzeOptions& options = {});

}  // namespace greencap::prof
