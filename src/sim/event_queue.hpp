// Deterministic pending-event set for the discrete-event simulator.
//
// Events scheduled for the same virtual instant fire in insertion order
// (FIFO tie-breaking via a monotonically increasing sequence number), which
// makes every simulation replayable bit-for-bit from the same inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace greencap::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation.
struct EventId {
  std::uint64_t seq = 0;
  [[nodiscard]] friend bool operator==(EventId a, EventId b) { return a.seq == b.seq; }
};

/// Min-heap of (time, seq) ordered events carrying arbitrary callbacks.
///
/// Cancellation is lazy: cancelled events stay in the heap but are skipped
/// when popped. This keeps both schedule() and cancel() at O(log n) /
/// O(1) amortized without an auxiliary index structure.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` to fire at absolute virtual time `when`.
  EventId schedule(SimTime when, Callback cb);

  /// Marks an event as cancelled. Safe to call with an already-fired id
  /// (no effect). Returns true if the event was still pending.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Earliest pending event time; infinity if empty.
  [[nodiscard]] SimTime next_time() const;

  /// Pops the earliest live event. Precondition: !empty().
  /// Returns the event's time and callback.
  std::pair<SimTime, Callback> pop();

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    // Heap entries are moved around by std::priority_queue, so the callback
    // lives in a side table indexed by seq to keep Entry cheap to copy.
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void drop_dead_prefix() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  mutable std::vector<Callback> callbacks_;  // indexed by seq; empty fn == cancelled/fired
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace greencap::sim
