#include "rt/analysis.hpp"

#include <algorithm>
#include <ostream>

namespace greencap::rt {

namespace {

const char* color_for(hw::KernelClass klass) {
  switch (klass) {
    case hw::KernelClass::kGemm: return "#8dd3c7";
    case hw::KernelClass::kSyrk: return "#ffffb3";
    case hw::KernelClass::kTrsm: return "#bebada";
    case hw::KernelClass::kPotrf: return "#fb8072";
    case hw::KernelClass::kGetrf: return "#fdb462";
    case hw::KernelClass::kQrPanel: return "#80b1d3";
    case hw::KernelClass::kQrApply: return "#b3de69";
    case hw::KernelClass::kGeneric: return "#d9d9d9";
  }
  return "#d9d9d9";
}

}  // namespace

void write_dot(const Runtime& runtime, std::ostream& os) {
  os << "digraph taskgraph {\n"
     << "  rankdir=TB;\n"
     << "  node [shape=box, style=filled, fontsize=10];\n";
  for (std::size_t i = 0; i < runtime.task_count(); ++i) {
    const Task& t = runtime.task(static_cast<TaskId>(i));
    os << "  t" << t.id() << " [label=\"" << t.label;
    if (t.state == TaskState::kDone) {
      os << "\\nw" << t.assigned_worker;
    }
    os << "\", fillcolor=\"" << color_for(t.codelet().klass) << "\"];\n";
  }
  for (std::size_t i = 0; i < runtime.task_count(); ++i) {
    const Task& t = runtime.task(static_cast<TaskId>(i));
    for (TaskId succ : t.successors) {
      os << "  t" << t.id() << " -> t" << succ << ";\n";
    }
  }
  os << "}\n";
}

CriticalPath critical_path(const Runtime& runtime) {
  const std::size_t n = runtime.task_count();
  CriticalPath out;
  if (n == 0) {
    return out;
  }

  // dist[i] = longest duration-weighted path ENDING at task i (inclusive).
  std::vector<double> dist(n, 0.0);
  std::vector<TaskId> pred(n, kInvalidTask);
  double total_work = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = runtime.task(static_cast<TaskId>(i));
    const double dur = (t.end_time - t.start_time).sec();
    total_work += dur;
    dist[i] += dur;  // own duration on top of the best incoming path
    for (TaskId succ : t.successors) {
      const std::size_t s = static_cast<std::size_t>(succ);
      if (dist[i] > dist[s]) {
        dist[s] = dist[i];
        pred[s] = t.id();
      }
    }
  }

  const std::size_t sink =
      static_cast<std::size_t>(std::max_element(dist.begin(), dist.end()) - dist.begin());
  out.length = sim::SimTime::seconds(dist[sink]);
  for (TaskId cur = static_cast<TaskId>(sink); cur != kInvalidTask;
       cur = pred[static_cast<std::size_t>(cur)]) {
    out.tasks.push_back(cur);
  }
  std::reverse(out.tasks.begin(), out.tasks.end());
  out.serial_fraction = total_work > 0.0 ? dist[sink] / total_work : 0.0;
  return out;
}

}  // namespace greencap::rt
