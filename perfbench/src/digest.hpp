// Run digests: the numbers the correctness gate compares bit for bit.
//
// A digest holds four results of one experiment. Reference tables map an
// experiment's ExperimentConfig::describe() string to its digest and are
// stored beside the benchmark as text at %.17g, which round-trips every
// double exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/experiment.hpp"

namespace perfbench {

struct RunDigest {
  double time_s = 0.0;
  double total_energy_j = 0.0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t gpu_tasks = 0;
};

[[nodiscard]] RunDigest digest_of(const greencap::core::ExperimentResult& result);

/// Bitwise equality: a 1-ulp change, or +0 against -0, is a mismatch.
[[nodiscard]] bool same_bits(const RunDigest& a, const RunDigest& b);

/// "time_s energy_j tasks_completed gpu_tasks", doubles at %.17g.
[[nodiscard]] std::string format_digest(const RunDigest& d);

using ReferenceTable = std::map<std::string, RunDigest>;

/// Reads "key<TAB>time_s<TAB>energy_j<TAB>tasks<TAB>gpu_tasks" lines; blank
/// lines and lines starting with '#' are skipped. Throws std::runtime_error
/// on a missing file or a malformed line.
[[nodiscard]] ReferenceTable load_reference(const std::string& path);

/// Writes `table` in the format load_reference() reads. Throws
/// std::runtime_error when the file cannot be written.
void write_reference(const std::string& path, const ReferenceTable& table);

/// Compares `digest` with the reference entry for `key`. Returns an empty
/// string on a bitwise match or when the key is absent and not `required`;
/// otherwise a one-line description of the mismatch.
[[nodiscard]] std::string check_reference(const ReferenceTable& table, const std::string& key,
                                          const RunDigest& digest, bool required);

}  // namespace perfbench
