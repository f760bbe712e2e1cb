// perfbench: the repository benchmark binary.
//
//   perfbench --workload paper-fig3|advisor-sweep|resilient-observed
//             --seed N --seconds S --trace 0|1
//             [--reference-dir DIR] [--scratch DIR] [--spans-out FILE]
//             [--commit ID] [--sources DIGEST] [--write-reference]
//
// Prints an environment header, one "metric <name> <value> <unit>" line per
// metric, and as its last line the JSON result. perfbench/README.md
// documents the workloads and every metric; perfbench/run.py builds this
// binary and runs it.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/cli_flags.hpp"
#include "digest.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

/// Set-up repetitions per invocation; setup_s is their median.
constexpr int kSetupRepeats = 51;

#ifdef NDEBUG
constexpr bool kAssertionsOn = false;
#else
constexpr bool kAssertionsOn = true;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  int trace = 0;
  std::string reference_dir = "perfbench/reference";
  std::string scratch = ".bench_build/perfbench/scratch";
  std::string spans_out;
  std::string commit = "unknown";
  std::string sources = "unknown";
  bool write_reference = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

long llc_bytes() {
  long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (bytes <= 0) {
    bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  }
  return bytes;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of the traced passes. Times are a layer's self time in
/// ms per run; counts are per pass; ratios carry their base in the name.
std::vector<Metric> layer_metrics(const std::vector<TracedPass>& traced,
                                  const std::vector<double>& traced_wall,
                                  const std::vector<double>& untraced_wall,
                                  const std::vector<double>& idle_frac) {
  std::map<std::string, double> self_s;
  double run_total_s = 0.0;
  std::size_t runs = 0;
  RunCounts sum;
  double hits = 0.0;
  double misses = 0.0;
  for (const TracedPass& pass : traced) {
    hits += static_cast<double>(pass.cache_hits);
    misses += static_cast<double>(pass.cache_misses);
    for (const TracedRun& run : pass.runs) {
      ++runs;
      sum += run.counts;
      const std::vector<Span>& spans = run.spans.spans();
      const std::vector<std::int64_t> self = self_times_ns(spans);
      for (std::size_t j = 0; j < spans.size(); ++j) {
        self_s[spans[j].name] += static_cast<double>(self[j]) / 1e9;
        if (spans[j].parent < 0) {
          run_total_s += static_cast<double>(spans[j].end_ns - spans[j].start_ns) / 1e9;
        }
      }
    }
  }
  const double passes = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
  auto ms_per_run = [&](const char* name) {
    return ratio(self_s[name] * 1e3, static_cast<double>(runs));
  };
  auto per_pass = [&](double total) { return total / passes; };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double execute_s = self_s["rt.execute"];
  const double ckpt_s = self_s["ckpt.capture"] + self_s["ckpt.write"];
  return {
      {"core.context_ms", ms_per_run("core.context"), "ms"},
      {"core.protocol_ms", ms_per_run("core.protocol"), "ms"},
      {"core.cache_hits", per_pass(hits), "count"},
      {"core.cache_misses", per_pass(misses), "count"},
      {"core.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"core.engine_idle_frac", median(idle_frac), "ratio"},
      {"power.apply_ms", ms_per_run("power.apply"), "ms"},
      {"power.cap_write_failures", per_pass(d(sum.cap_write_failures)), "count"},
      {"rt.calibrate_ms", ms_per_run("rt.calibrate"), "ms"},
      {"rt.calibrate_calls", per_pass(d(sum.calibrations_measured)), "count"},
      {"la.submit_ms", ms_per_run("la.submit"), "ms"},
      {"la.submit_us_per_task", ratio(self_s["la.submit"] * 1e6, d(sum.tasks_submitted)),
       "us/task"},
      {"rt.tasks_submitted", per_pass(d(sum.tasks_submitted)), "count"},
      {"rt.dependency_edges", per_pass(d(sum.dependency_edges)), "count"},
      {"rt.execute_ms", ms_per_run("rt.execute"), "ms"},
      {"rt.sim_tasks_per_s", ratio(d(sum.tasks_completed), execute_s), "tasks/s"},
      {"sim.events", per_pass(d(sum.sim_events)), "count"},
      {"sim.events_per_task", ratio(d(sum.sim_events), d(sum.tasks_completed)), "events/task"},
      {"sim.events_per_s", ratio(d(sum.sim_events), execute_s), "events/s"},
      {"rt.bytes_transferred", per_pass(d(sum.bytes_transferred)), "bytes"},
      {"rt.gpu_task_frac", ratio(d(sum.gpu_tasks), d(sum.tasks_completed)), "ratio"},
      {"fault.fired", per_pass(d(sum.faults_fired)), "count"},
      {"fault.degradations", per_pass(d(sum.degradations)), "count"},
      {"ckpt.capture_ms", ms_per_run("ckpt.capture"), "ms"},
      {"ckpt.write_ms", ms_per_run("ckpt.write"), "ms"},
      {"ckpt.writes", per_pass(d(sum.ckpt_writes)), "count"},
      {"ckpt.bytes", per_pass(d(sum.ckpt_bytes)), "bytes"},
      {"ckpt.mb_per_s", ratio(d(sum.ckpt_bytes) / 1e6, ckpt_s), "MB/s"},
      {"obs.export_ms", ms_per_run("obs.export"), "ms"},
      {"obs.trace_bytes", per_pass(d(sum.trace_bytes)), "bytes"},
      {"obs.trace_spans", per_pass(d(sum.trace_spans)), "count"},
      {"prof.analyze_ms", ms_per_run("prof.analyze"), "ms"},
      {"prof.write_ms", ms_per_run("prof.write"), "ms"},
      {"prof.bytes", per_pass(d(sum.profile_bytes)), "bytes"},
      {"bench.unattributed_pct", ratio(self_s["run"] * 100.0, run_total_s), "%"},
      {"bench.trace_overhead_pct",
       (ratio(median(traced_wall), median(untraced_wall)) - 1.0) * 100.0, "%"},
  };
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string{"{\"correct\": "} + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

/// Runs one pass and stores its digests as the workload's reference.
int write_reference_file(const Inputs& inputs, const fs::path& file) {
  const PassResult pass = run_pass(inputs);
  ReferenceTable table;
  for (std::size_t i = 0; i < pass.digests.size(); ++i) {
    const auto [it, inserted] = table.emplace(inputs.configs[i].describe(), pass.digests[i]);
    if (!inserted && !same_bits(it->second, pass.digests[i])) {
      std::cerr << "perfbench: repeated experiment disagrees with itself: " << it->first << "\n";
      return 1;
    }
  }
  write_reference(file.string(), table);
  std::cerr << "perfbench: wrote " << table.size() << " reference digests to " << file.string()
            << "\n";
  return 0;
}

void write_spans(const std::string& path, const std::vector<TracedPass>& traced) {
  std::vector<SpanLog> logs;
  for (const TracedPass& pass : traced) {
    for (const TracedRun& run : pass.runs) {
      logs.push_back(run.spans);
    }
  }
  const fs::path out_path{path};
  if (out_path.has_parent_path()) {
    fs::create_directories(out_path.parent_path());
  }
  std::ofstream out{out_path};
  write_spans_json(out, logs);
  out.flush();
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
  std::printf("# spans of %zu traced runs written to %s\n", logs.size(), path.c_str());
}

int run(int argc, char** argv) {
  Args args;
  greencap::core::FlagParser parser;
  parser.str("--workload", &args.workload);
  parser.u64("--seed", &args.seed);
  parser.f64("--seconds", &args.seconds);
  parser.i32("--trace", &args.trace);
  parser.str("--reference-dir", &args.reference_dir);
  parser.str("--scratch", &args.scratch);
  parser.str("--spans-out", &args.spans_out);
  parser.str("--commit", &args.commit);
  parser.str("--sources", &args.sources);
  parser.flag("--write-reference", &args.write_reference);
  if (const std::string err = parser.parse(argc, argv); !err.empty()) {
    std::cerr << "perfbench: " << err << "\n";
    return 2;
  }
  const std::optional<Workload> workload = parse_workload(args.workload);
  if (!workload || !(args.seconds > 0.0) || (args.trace != 0 && args.trace != 1)) {
    std::cerr << "usage: perfbench --workload paper-fig3|advisor-sweep|resilient-observed"
                 " --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  if (std::string_view{PERFBENCH_BUILD_TYPE} != "Release" || kAssertionsOn) {
    std::cerr << "perfbench: refusing to report from a '" << PERFBENCH_BUILD_TYPE
              << "' build; only Release numbers are comparable\n";
    return 3;
  }
  std::printf("# perfbench env: nproc=%u llc_bytes=%ld compiler=\"%s\" build_type=%s commit=%s "
              "sources=%s\n",
              std::thread::hardware_concurrency(), llc_bytes(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, args.commit.c_str(), args.sources.c_str());

  const fs::path reference_file =
      fs::path{args.reference_dir} / (std::string{workload_name(*workload)} + ".tsv");
  std::vector<double> setup_s;
  Inputs inputs;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::int64_t start = now_ns();
    inputs = set_up(*workload, args.seed, reference_file, args.scratch, args.write_reference);
    setup_s.push_back(seconds_since(start));
  }
  const std::size_t n = inputs.configs.size();
  std::printf("# workload=%s seed=%llu trace=%d runs_per_pass=%zu jobs=%d "
              "reference_entries=%zu\n",
              workload_name(*workload), static_cast<unsigned long long>(args.seed), args.trace,
              n, inputs.jobs, inputs.reference.size());
  std::fflush(stdout);
  if (args.write_reference) {
    return write_reference_file(inputs, reference_file);
  }

  Checker checker{inputs};
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> pass_wall;
  std::vector<double> run_ms;
  std::vector<double> idle_frac;
  std::vector<double> traced_wall;
  std::vector<TracedPass> traced;
  std::uint32_t next_run_id = 0;
  const std::int64_t start = now_ns();
  for (;;) {
    PassResult pass;
    attempted += n;
    try {
      pass = run_pass(inputs);
    } catch (const std::exception& err) {
      failed += checker.fail_pass(std::string{"pass threw: "} + err.what());
      break;
    }
    failed += checker.check_pass(pass.digests);
    if (pass_wall.empty()) {
      // Each pass starts with a cold cache, so its misses are the distinct keys.
      std::printf("# distinct_cache_keys=%zu cache_lookups=%zu\n", pass.cache_misses,
                  pass.cache_hits + pass.cache_misses);
    }
    pass_wall.push_back(pass.wall_s);
    run_ms.insert(run_ms.end(), pass.run_ms.begin(), pass.run_ms.end());
    const double busy_s = std::accumulate(pass.run_ms.begin(), pass.run_ms.end(), 0.0) / 1e3;
    idle_frac.push_back(1.0 - ratio(busy_s, inputs.jobs * pass.wall_s));
    if (args.trace == 1) {
      attempted += n;
      try {
        TracedPass t = run_traced_pass(inputs, next_run_id);
        next_run_id += static_cast<std::uint32_t>(n);
        failed += checker.check_replay(pass.digests, digests_of(t));
        traced_wall.push_back(t.wall_s);
        traced.push_back(std::move(t));
      } catch (const std::exception& err) {
        failed += checker.fail_pass(std::string{"traced pass threw: "} + err.what());
        break;
      }
    }
    // The tail percentile needs kMinTailSamples runs, so a workload with
    // long runs may measure a little past --seconds.
    const bool enough = args.trace == 1 || run_ms.size() >= kMinTailSamples;
    if (seconds_since(start) >= args.seconds && enough) {
      break;
    }
  }

  const double failed_frac = ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    const std::optional<Tail> tail = tail_percentile(run_ms);
    if (tail) {
      std::printf("# run_tail_ms is p%g of %zu runs (%.1f beyond it)\n", tail->percentile,
                  tail->samples, tail->beyond);
    } else {
      std::printf("# run_tail_ms is the maximum of %zu runs (too few for a percentile)\n",
                  run_ms.size());
    }
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"campaign_s", median(pass_wall), "s"},
        {"run_p50_ms", median(run_ms), "ms"},
        {"run_tail_ms", tail ? tail->value : percentile(run_ms, 100.0), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"success_frac", 1.0 - failed_frac, "ratio"},
    };
  } else {
    metrics = layer_metrics(traced, traced_wall, pass_wall, idle_frac);
    if (!args.spans_out.empty()) {
      write_spans(args.spans_out, traced);
    }
  }
  std::printf("# passes=%zu runs=%zu attempted=%zu failed=%zu elapsed_s=%.3f\n",
              pass_wall.size(), run_ms.size(), attempted, failed, seconds_since(start));
  for (const Metric& m : metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("metric failed_frac %.6g ratio\n", failed_frac);
  std::fflush(stdout);
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    std::cerr << "perfbench: error: " << err.what() << "\n";
    return 1;
  }
}
