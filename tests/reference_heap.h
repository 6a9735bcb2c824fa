// The seed simulator's future-event list: a plain binary min-heap on
// (time, priority, seq), the pop order the simulator's determinism
// contract is written in.  It lives here, not in src/, as the oracle the
// calendar EventQueue is checked against: the differential fuzz in
// test_event_queue.cpp drives both with identical push/pop streams, and
// the log replays there feed both the exact interleaving of real runs.
// Typed events only -- closures are the calendar's business.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace linbound {

class ReferenceHeap {
 public:
  /// Same contract as EventQueue::push_typed: assigns time, priority and
  /// the next sequence number; returns the sequence number.
  std::uint64_t push_typed(Tick time, EventPriority priority, SimEvent ev) {
    ev.time = time;
    ev.priority = static_cast<std::uint8_t>(priority);
    ev.seq = next_seq_++;
    heap_.push_back(ev);
    sift_up(heap_.size() - 1);
    return ev.seq;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  Tick next_time() const {
    return heap_.empty() ? kTimeInfinity : heap_.front().time;
  }

  SimEvent pop() {
    assert(!heap_.empty());
    SimEvent out = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return out;
  }

 private:
  /// Strict "a fires after b" on (time, priority, seq).
  static bool later(const SimEvent& a, const SimEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq > b.seq;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!later(heap_[parent], heap_[i])) break;
      std::swap(heap_[parent], heap_[i]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      std::size_t best = i;
      if (l < n && later(heap_[best], heap_[l])) best = l;
      if (r < n && later(heap_[best], heap_[r])) best = r;
      if (best == i) return;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<SimEvent> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace linbound
