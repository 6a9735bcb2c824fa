#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace linbound {

EventQueue::EventQueue(EventQueueImpl) {}

void EventQueue::allocate_calendar() {
  buckets_.resize(kWindow);
  l1_.resize(kL1);
}

std::uint64_t EventQueue::push(Tick time, EventPriority priority,
                               std::function<void()> fire) {
  SimEvent ev;
  ev.kind = EventKind::kCall;
  if (free_fn_slots_.empty()) {
    ev.fn_slot = static_cast<std::int32_t>(fn_pool_.size());
    fn_pool_.push_back(std::move(fire));
  } else {
    ev.fn_slot = free_fn_slots_.back();
    free_fn_slots_.pop_back();
    fn_pool_[static_cast<std::size_t>(ev.fn_slot)] = std::move(fire);
  }
  return push_typed(time, priority, ev);
}

std::uint64_t EventQueue::push_typed(Tick time, EventPriority priority,
                                     SimEvent ev) {
  if (buckets_.empty()) allocate_calendar();
  ev.time = time;
  ev.priority = static_cast<std::uint8_t>(priority);
  ev.seq = next_seq_++;
  log_push(time, ev.priority);
  ++size_;
  if (size_ > high_water_) high_water_ = size_;
  if (time < window_start_) {
    // Behind the window (the window never moves back): the early rung.  All
    // of its times are strictly below every bucketed/wheel/far time, so the
    // global (time, priority, seq) order is preserved by draining it first.
    heap_push(early_, ev);
    return ev.seq;
  }
  const Tick off = time - window_start_;
  if (off >= static_cast<Tick>(kWindow)) {
    if (off < kSpan) {
      l1_insert(ev);  // level-1 wheel
    } else {
      heap_push(far_, ev);  // beyond the wheel span
    }
    return ev.seq;
  }
  if (static_cast<std::size_t>(off) < cursor_) {
    cursor_ = static_cast<std::size_t>(off);
  }
  bucket_insert(ev);
  return ev.seq;
}

Tick EventQueue::next_time() const {
  if (size_ == 0) return kTimeInfinity;
  if (!early_.empty()) return early_.front().time;
  if (calendar_live_ == 0) {
    // The answer lives on the wheel or far rung; rotating realizes it in
    // level 0 (chains are seq-ordered, not time-ordered, so only the
    // migration can say which tick comes first).  Internal restructure
    // only -- pop order and the push/pop log are untouched.
    const_cast<EventQueue*>(this)->rotate();
  }
  const std::size_t off = next_populated(cursor_);
  assert(off < kWindow);
  return window_start_ + static_cast<Tick>(off);
}

SimEvent EventQueue::pop() {
  assert(size_ > 0 && "EventQueue::pop on an empty queue");
  log_pop();
  --size_;
  SimEvent out;
  if (!early_.empty()) {
    out = heap_pop(early_);
  } else {
    if (calendar_live_ == 0) rotate();
    const std::size_t off = next_populated(cursor_);
    assert(off < kWindow && "calendar queue lost track of a live bucket");
    Bucket& bucket = buckets_[off];
    const std::size_t lane = bucket.pos[0] < bucket.lane[0].size() ? 0 : 1;
    assert(bucket.pos[lane] < bucket.lane[lane].size());
    out = bucket.lane[lane][bucket.pos[lane]];
    ++bucket.pos[lane];
    --calendar_live_;
    if (bucket.drained()) {
      bucket.reset();  // clear() keeps capacity: buckets recycle allocations
      words_[off / 64] &= ~(1ull << (off % 64));
      if (words_[off / 64] == 0) summary_ &= ~(1ull << (off / 64));
      cursor_ = off + 1;
    } else {
      cursor_ = off;
    }
  }
  if (out.fn_slot >= 0) {
    popped_call_ = std::move(fn_pool_[static_cast<std::size_t>(out.fn_slot)]);
    free_fn_slots_.push_back(out.fn_slot);
  }
  return out;
}

void EventQueue::reserve(std::size_t events) {
  // The wheel pool absorbs scheduling bursts (batched open-loop invocations
  // land far in the future), so it is the contiguous storage worth
  // pre-sizing.
  if (l1_pool_.capacity() < events) {
    l1_pool_.reserve(events);
    l1_next_.reserve(events);
  }
  // Far-future bursts are kCall-scheduled workload invocations, each of
  // which parks a closure; size the pool with them.
  if (fn_pool_.capacity() < events) fn_pool_.reserve(events);
  if (free_fn_slots_.capacity() < events) free_fn_slots_.reserve(events);
}

void EventQueue::warm_buckets(std::size_t per_lane) {
  if (buckets_.empty()) allocate_calendar();
  for (Bucket& bucket : buckets_) {
    if (bucket.lane[0].capacity() < per_lane) bucket.lane[0].reserve(per_lane);
    if (bucket.lane[1].capacity() < per_lane) bucket.lane[1].reserve(per_lane);
  }
}

// --- binary-heap rungs ------------------------------------------------------

void EventQueue::heap_push(std::vector<SimEvent>& heap, const SimEvent& ev) {
  heap.push_back(ev);
  std::push_heap(heap.begin(), heap.end(), later);
}

SimEvent EventQueue::heap_pop(std::vector<SimEvent>& heap) {
  assert(!heap.empty());
  std::pop_heap(heap.begin(), heap.end(), later);
  const SimEvent out = heap.back();
  heap.pop_back();
  return out;
}

// --- calendar machinery -----------------------------------------------------

void EventQueue::l1_insert(const SimEvent& ev) {
  const std::size_t idx = wheel_index(ev.time);
  std::int32_t slot;
  if (l1_free_ >= 0) {
    slot = l1_free_;
    l1_free_ = l1_next_[static_cast<std::size_t>(slot)];
    l1_pool_[static_cast<std::size_t>(slot)] = ev;
  } else {
    slot = static_cast<std::int32_t>(l1_pool_.size());
    l1_pool_.push_back(ev);
    l1_next_.push_back(-1);
  }
  l1_next_[static_cast<std::size_t>(slot)] = -1;
  L1Bucket& chain = l1_[idx];
  if (chain.tail >= 0) {
    l1_next_[static_cast<std::size_t>(chain.tail)] = slot;
  } else {
    chain.head = slot;
    l1_words_[idx / 64] |= 1ull << (idx % 64);
    l1_summary_ |= 1ull << (idx / 64);
  }
  chain.tail = slot;
}

void EventQueue::bucket_insert(const SimEvent& ev) {
  const std::size_t off = static_cast<std::size_t>(ev.time - window_start_);
  assert(off < kWindow);
  const std::size_t lane = ev.priority == 0 ? 0 : 1;
  buckets_[off].lane[lane].push_back(ev);
  words_[off / 64] |= 1ull << (off % 64);
  summary_ |= 1ull << (off / 64);
  ++calendar_live_;
}

std::size_t EventQueue::next_populated(std::size_t from) const {
  if (from >= kWindow) return kWindow;
  std::size_t w = from / 64;
  std::uint64_t word = words_[w] & (~0ull << (from % 64));
  if (word == 0) {
    const std::uint64_t rest =
        w + 1 < kWords ? summary_ & (~0ull << (w + 1)) : 0;
    if (rest == 0) return kWindow;
    w = static_cast<std::size_t>(__builtin_ctzll(rest));
    word = words_[w];
  }
  return w * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
}

std::size_t EventQueue::l1_next_index(std::size_t from) const {
  if (l1_summary_ == 0) return kL1;
  from &= kL1 - 1;
  std::size_t w = from / 64;
  std::uint64_t word = l1_words_[w] & (~0ull << (from % 64));
  if (word == 0) {
    const std::uint64_t rest =
        w + 1 < kL1Words ? l1_summary_ & (~0ull << (w + 1)) : 0;
    if (rest != 0) {
      w = static_cast<std::size_t>(__builtin_ctzll(rest));
      word = l1_words_[w];
    } else {
      // Wrap around: the circularly-next populated chain is the globally
      // first one.
      w = static_cast<std::size_t>(__builtin_ctzll(l1_summary_));
      word = l1_words_[w];
    }
  }
  return w * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
}

void EventQueue::rotate() {
  assert(calendar_live_ == 0 && size_ > early_.size() &&
         "rotate needs a pending wheel or far-rung event");
  // Nearest pending source.  Within the live range no two event times alias
  // one wheel index, so the circularly-next populated chain is also the
  // earliest one.
  Tick new_start = kTimeInfinity;
  std::size_t idx = kL1;
  if (l1_summary_ != 0) {
    idx = l1_next_index(wheel_index(window_start_) + 1);
    new_start = align_down(
        l1_pool_[static_cast<std::size_t>(l1_[idx].head)].time);
  }
  if (!far_.empty()) {
    const Tick far_start = align_down(far_.front().time);
    if (far_start < new_start) new_start = far_start;
  }
  window_start_ = new_start;
  cursor_ = 0;
  const Tick window_end = window_start_ + static_cast<Tick>(kWindow);
  // Far rung first: any (tick, priority) pair split across the two sources
  // has its far events carrying strictly smaller seqs (they were pushed
  // under an older window, or they would have gone onto the wheel), and
  // lane order must be seq order.  Far pops ascend in (time, priority,
  // seq), so among themselves they also append in order.
  while (!far_.empty() && far_.front().time < window_end) {
    bucket_insert(heap_pop(far_));
  }
  if (idx < kL1 &&
      align_down(l1_pool_[static_cast<std::size_t>(l1_[idx].head)].time) ==
          window_start_) {
    // Migrate the chain in link order (= push = seq order); each record
    // lands in the new window by construction.
    std::int32_t slot = l1_[idx].head;
    l1_[idx] = L1Bucket{};
    l1_words_[idx / 64] &= ~(1ull << (idx % 64));
    if (l1_words_[idx / 64] == 0) l1_summary_ &= ~(1ull << (idx / 64));
    while (slot >= 0) {
      const std::int32_t next = l1_next_[static_cast<std::size_t>(slot)];
      bucket_insert(l1_pool_[static_cast<std::size_t>(slot)]);
      l1_next_[static_cast<std::size_t>(slot)] = l1_free_;
      l1_free_ = slot;
      slot = next;
    }
  }
  assert(calendar_live_ > 0 && "rotate migrated nothing");
}

}  // namespace linbound
