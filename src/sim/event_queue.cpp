#include "sim/event_queue.hpp"

#include <cassert>

namespace greencap::sim {

EventId EventQueue::schedule(SimTime when, Callback cb) {
  assert(cb && "cannot schedule a null callback");
  const std::uint64_t seq = next_seq_++;
  callbacks_.push_back(std::move(cb));
  heap_.push(Entry{when, seq});
  ++live_count_;
  return EventId{seq};
}

bool EventQueue::cancel(EventId id) {
  if (id.seq >= callbacks_.size() || !callbacks_[id.seq]) {
    return false;
  }
  callbacks_[id.seq] = nullptr;
  --live_count_;
  return true;
}

void EventQueue::drop_dead_prefix() const {
  while (!heap_.empty() && !callbacks_[heap_.top().seq]) {
    heap_.pop();
  }
}

SimTime EventQueue::next_time() const {
  drop_dead_prefix();
  if (heap_.empty()) {
    return SimTime::infinity();
  }
  return heap_.top().when;
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  drop_dead_prefix();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const Entry top = heap_.top();
  heap_.pop();
  Callback cb = std::move(callbacks_[top.seq]);
  callbacks_[top.seq] = nullptr;
  --live_count_;
  return {top.when, std::move(cb)};
}

}  // namespace greencap::sim
