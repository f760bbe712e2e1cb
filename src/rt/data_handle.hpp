// Registered data and its placement across memory nodes.
//
// A DataHandle describes one logical piece of application data (typically a
// matrix tile). The runtime tracks which memory nodes hold a valid copy
// (MSI-style coherence without the S/E distinction: a write invalidates all
// other copies). Placement only affects *timing* — when kernels really
// execute, the bytes always live in host memory, since the simulated GPUs
// have no physical memory of their own.
#pragma once

#include <bitset>
#include <cstdint>
#include <string>
#include <vector>

#include "rt/types.hpp"

namespace greencap::rt {

class DataHandle {
 public:
  static constexpr std::size_t kMaxNodes = 32;

  DataHandle(HandleId id, std::uint64_t bytes, void* host_ptr, std::string name)
      : id_{id}, bytes_{bytes}, host_ptr_{host_ptr}, name_{std::move(name)} {
    valid_.set(kHostNode);
  }

  [[nodiscard]] HandleId id() const { return id_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] void* host_ptr() const { return host_ptr_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] bool valid_on(MemoryNode node) const { return valid_.test(node); }

  /// Marks `node` as holding a valid copy (after a transfer completes).
  void add_copy(MemoryNode node) { valid_.set(node); }

  /// A write on `node` makes it the unique owner.
  void writer_takes(MemoryNode node) {
    valid_.reset();
    valid_.set(node);
  }

  /// Invalidates the copy on `node` (e.g. the node's device dropped off
  /// the bus). May leave the handle valid nowhere; the caller is
  /// responsible for restoring a copy somewhere reachable.
  void drop_copy(MemoryNode node) { valid_.reset(node); }

  /// Number of nodes currently holding a valid copy.
  [[nodiscard]] std::size_t copy_count() const { return valid_.count(); }

  // -- implicit-dependency bookkeeping (used by DependencyTracker) --------
  TaskId last_writer = kInvalidTask;
  std::vector<TaskId> readers_since_write;

 private:
  HandleId id_;
  std::uint64_t bytes_;
  void* host_ptr_;
  std::string name_;
  std::bitset<kMaxNodes> valid_;
};

}  // namespace greencap::rt
