// Codelets: multi-architecture task implementations (StarPU's starpu_codelet).
//
// A codelet bundles the host functions that implement a kernel on each
// architecture with the cost descriptor the performance models and device
// models use. The "cuda" function is still a host function here — the
// simulated GPU contributes timing and energy, while the host function
// provides the actual numerics when Runtime::Options::execute_kernels is
// enabled.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "hw/kernel_work.hpp"
#include "rt/types.hpp"

namespace greencap::rt {

class Task;
class Worker;

/// Signature of a kernel implementation: receives the task so it can reach
/// its handles' host pointers and its arguments.
using KernelFunc = std::function<void(Task&)>;

/// Optional fine-grained eligibility predicate (StarPU's
/// codelet::can_execute): invoked on top of the `where` mask, e.g. to pin
/// a kernel to one GPU generation or to a specific device index.
using CanExecuteFunc = std::function<bool(const Worker&, const Task&)>;

struct Codelet {
  std::string name;
  WhereMask where = kWhereAny;
  /// Kernel family — selects the per-device efficiency factor.
  hw::KernelClass klass = hw::KernelClass::kGeneric;
  /// Host implementation, run on whichever worker executes the task when
  /// kernels really execute; CPU and CUDA workers differ only in timing.
  KernelFunc cpu_func;
  /// Optional per-worker eligibility refinement; null = where-mask only.
  CanExecuteFunc can_execute;
};

}  // namespace greencap::rt
