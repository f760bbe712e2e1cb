#include "obs/decision_log.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>

#include "obs/json.hpp"

namespace greencap::obs {

double Decision::relative_error() const {
  if (!realized() || realized_exec_s <= 0.0) {
    return 0.0;
  }
  return (expected_exec_s - realized_exec_s) / realized_exec_s;
}

std::size_t DecisionLog::add(Decision decision) {
  decisions_.push_back(std::move(decision));
  return decisions_.size() - 1;
}

void DecisionLog::realize(std::size_t index, double realized_exec_s) {
  decisions_.at(index).realized_exec_s = realized_exec_s;
}

std::vector<ModelAccuracy> DecisionLog::accuracy_report() const {
  struct Accum {
    std::uint64_t n = 0;
    double abs_sum = 0.0;
    double signed_sum = 0.0;
    double worst = 0.0;
  };
  std::map<std::pair<std::string, std::string>, Accum> by_key;
  for (const Decision& d : decisions_) {
    if (!d.realized() || d.realized_exec_s <= 0.0) {
      continue;
    }
    Accum& a = by_key[{d.codelet, d.worker_arch}];
    const double err = d.relative_error();
    ++a.n;
    a.abs_sum += std::fabs(err);
    a.signed_sum += err;
    a.worst = std::max(a.worst, std::fabs(err));
  }
  std::vector<ModelAccuracy> report;
  report.reserve(by_key.size());
  for (const auto& [key, a] : by_key) {
    ModelAccuracy row;
    row.codelet = key.first;
    row.arch = key.second;
    row.samples = a.n;
    row.mean_rel_error = a.abs_sum / static_cast<double>(a.n);
    row.mean_signed_error = a.signed_sum / static_cast<double>(a.n);
    row.worst_rel_error = a.worst;
    report.push_back(std::move(row));
  }
  return report;
}

double DecisionLog::overall_mean_rel_error() const {
  std::uint64_t n = 0;
  double sum = 0.0;
  for (const Decision& d : decisions_) {
    if (d.realized() && d.realized_exec_s > 0.0) {
      ++n;
      sum += std::fabs(d.relative_error());
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

void DecisionLog::write_json(std::ostream& os) const {
  JsonWriter w{os};
  w.raw("{\n  \"decisions\": [");
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    const Decision& d = decisions_[i];
    w.raw(i == 0 ? "\n    {" : ",\n    {").raw("\"task\": ").integer(d.task);
    w.raw(", \"codelet\": ").str(d.codelet).raw(", \"arch\": ").str(d.worker_arch);
    w.raw(", \"worker\": ").integer(d.chosen_worker);
    w.raw(", \"decided_at_s\": ").number(d.decided_at.sec());
    w.raw(", \"queue_wait_s\": ").number(d.queue_wait_s);
    w.raw(", \"expected_exec_s\": ").number(d.expected_exec_s);
    w.raw(", \"realized_exec_s\": ").number(d.realized_exec_s).raw(", \"alternatives\": [");
    for (std::size_t k = 0; k < d.alternatives.size(); ++k) {
      const DecisionAlternative& alt = d.alternatives[k];
      w.raw(k > 0 ? ", {\"worker\": " : "{\"worker\": ").integer(alt.worker);
      w.raw(", \"exec_s\": ").number(alt.expected_exec_s);
      w.raw(", \"transfer_s\": ").number(alt.expected_transfer_s);
      w.raw(", \"energy_j\": ").number(alt.expected_energy_j).raw('}');
    }
    w.raw("]}");
  }
  w.raw(decisions_.empty() ? "]\n" : "\n  ]\n").raw("}\n");
}

void DecisionLog::print_accuracy(std::ostream& os) const {
  const auto report = accuracy_report();
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-14s %-5s %8s %10s %10s %10s\n", "codelet", "arch",
                "samples", "mean|err|", "bias", "worst|err|");
  os << buf;
  for (const ModelAccuracy& row : report) {
    std::snprintf(buf, sizeof buf, "%-14s %-5s %8llu %9.2f%% %+9.2f%% %9.2f%%\n",
                  row.codelet.c_str(), row.arch.c_str(),
                  static_cast<unsigned long long>(row.samples), row.mean_rel_error * 100.0,
                  row.mean_signed_error * 100.0, row.worst_rel_error * 100.0);
    os << buf;
  }
  if (report.empty()) {
    os << "(no realized decisions)\n";
  }
}

}  // namespace greencap::obs
