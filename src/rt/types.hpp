// Fundamental identifiers and enums of the task runtime.
#pragma once

#include <cstdint>
#include <string>

namespace greencap::rt {

using TaskId = std::int64_t;
using HandleId = std::int64_t;
using WorkerId = std::int32_t;
using MemoryNode = std::int32_t;  ///< 0 = host RAM, 1+i = GPU i device memory
/// Dense id of an interned codelet name (HistoryPerfModel::intern).
using CodeletId = std::uint32_t;

inline constexpr MemoryNode kHostNode = 0;
inline constexpr TaskId kInvalidTask = -1;
inline constexpr CodeletId kNoCodelet = UINT32_MAX;

/// Data access modes, with StarPU's implicit sequential-consistency
/// semantics: the dependency tracker serializes conflicting accesses in
/// submission order (R//R commutes, everything involving W does not).
enum class AccessMode : std::uint8_t { kRead, kWrite, kReadWrite };

[[nodiscard]] inline const char* to_string(AccessMode m) {
  switch (m) {
    case AccessMode::kRead: return "R";
    case AccessMode::kWrite: return "W";
    case AccessMode::kReadWrite: return "RW";
  }
  return "?";
}

[[nodiscard]] inline bool is_write(AccessMode m) { return m != AccessMode::kRead; }

/// Worker architecture classes (StarPU's STARPU_CPU / STARPU_CUDA).
enum class WorkerArch : std::uint8_t { kCpuCore, kCuda };

[[nodiscard]] inline const char* to_string(WorkerArch a) {
  return a == WorkerArch::kCpuCore ? "cpu" : "cuda";
}

/// Bitmask of architectures a codelet can execute on.
struct WhereMask {
  bool cpu = false;
  bool cuda = false;

  [[nodiscard]] bool can_run_on(WorkerArch arch) const {
    return arch == WorkerArch::kCpuCore ? cpu : cuda;
  }
};

inline constexpr WhereMask kWhereCpu{true, false};
inline constexpr WhereMask kWhereCuda{false, true};
inline constexpr WhereMask kWhereAny{true, true};

}  // namespace greencap::rt
