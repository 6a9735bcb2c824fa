#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace linbound {

namespace {

/// Slot and closure indices are int32 (SimEvent::fn_slot, chain links):
/// refuse to grow a pool past that range instead of wrapping an index.
std::int32_t checked_slot_index(std::size_t index) {
  constexpr auto kMax =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  if (index > kMax) {
    throw std::length_error("event queue pool exhausted: " +
                            std::to_string(index) +
                            " slots exceed the int32 slot index range");
  }
  return static_cast<std::int32_t>(index);
}

}  // namespace

EventQueue::EventQueue(EventQueueImpl) {}

void EventQueue::allocate_calendar() {
  window_ = hint_ == 0
                ? kMaxWindow
                : std::clamp(std::bit_ceil(hint_), kMinWindow, kMaxWindow);
  log_window_ = static_cast<unsigned>(std::countr_zero(window_));
  span_ = static_cast<Tick>(window_) * static_cast<Tick>(kL1);
  // Default-initialised on purpose (new T[n], not make_unique<T[]>(n)): the
  // bitmaps say which heads are live, so no head is written before use.
  buckets_.reset(new Bucket[window_]);
  l1_.reset(new Chain[kL1]);
}

std::uint64_t EventQueue::push(Tick time, EventPriority priority,
                               std::function<void()> fire) {
  SimEvent ev;
  ev.kind = EventKind::kCall;
  if (free_fn_slots_.empty()) {
    ev.fn_slot = checked_slot_index(fn_pool_.size());
    fn_pool_.push_back(std::move(fire));
    // The free list never outgrows the pool: size it along, so recycling
    // a closure at pop never allocates.
    free_fn_slots_.reserve(fn_pool_.capacity());
  } else {
    ev.fn_slot = free_fn_slots_.back();
    free_fn_slots_.pop_back();
    fn_pool_[static_cast<std::size_t>(ev.fn_slot)] = std::move(fire);
  }
  return push_typed(time, priority, ev);
}

std::uint64_t EventQueue::push_typed(Tick time, EventPriority priority,
                                     SimEvent ev) {
  if (!buckets_) allocate_calendar();
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
  if (off >= static_cast<Tick>(window_)) {
    if (off < span_) {
      l1_link(alloc_slot(ev));  // level-1 wheel
    } else {
      heap_push(far_, ev);  // beyond the wheel span
    }
    return ev.seq;
  }
  if (static_cast<std::size_t>(off) < cursor_) {
    cursor_ = static_cast<std::size_t>(off);
  }
  bucket_link(alloc_slot(ev));
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
  assert(off < window_);
  return window_start_ + static_cast<Tick>(off);
}

SimEvent EventQueue::pop() {
  assert(size_ > 0 && "EventQueue::pop on an empty queue");
  log_pop();
  SimEvent out;
  if (!early_.empty()) {
    out = heap_pop(early_);
  } else {
    if (calendar_live_ == 0) rotate();
    const std::size_t off = next_populated(cursor_);
    assert(off < window_ && "calendar queue lost track of a live bucket");
    Bucket& bucket = buckets_[off];
    Chain& chain = bucket.chain[bucket.chain[0].head >= 0 ? 0 : 1];
    const std::int32_t slot = chain.head;
    assert(slot >= 0);
    const auto i = static_cast<std::size_t>(slot);
    out = pool_[i];
    chain.head = next_[i];
    if (chain.head < 0) chain.tail = -1;
    next_[i] = free_;
    free_ = slot;
    --calendar_live_;
    if (bucket.drained()) {
      words_[off / 64] &= ~(1ull << (off % 64));
      if (words_[off / 64] == 0) summary_ &= ~(1ull << (off / 64));
      cursor_ = off + 1;
    } else {
      cursor_ = off;
    }
  }
  --size_;  // after rotate(), whose precondition counts this event
  if (out.fn_slot >= 0) {
    popped_call_ = std::move(fn_pool_[static_cast<std::size_t>(out.fn_slot)]);
    free_fn_slots_.push_back(out.fn_slot);
  }
  return out;
}

void EventQueue::reserve(std::size_t events) {
  if (events > 0) checked_slot_index(events - 1);
  hint_ = std::max(hint_, events);
  if (pool_.capacity() < events) {
    pool_.reserve(events);
    next_.reserve(events);
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

std::int32_t EventQueue::alloc_slot(const SimEvent& ev) {
  std::int32_t slot;
  if (free_ >= 0) {
    slot = free_;
    free_ = next_[static_cast<std::size_t>(slot)];
    pool_[static_cast<std::size_t>(slot)] = ev;
    next_[static_cast<std::size_t>(slot)] = -1;
  } else {
    slot = checked_slot_index(pool_.size());
    pool_.push_back(ev);
    next_.push_back(-1);
  }
  return slot;
}

void EventQueue::link_tail(Chain& chain, std::int32_t slot) {
  if (chain.tail >= 0) {
    next_[static_cast<std::size_t>(chain.tail)] = slot;
  } else {
    chain.head = slot;
  }
  chain.tail = slot;
}

void EventQueue::l1_link(std::int32_t slot) {
  const std::size_t idx =
      wheel_index(pool_[static_cast<std::size_t>(slot)].time);
  const std::uint64_t bit = 1ull << (idx % 64);
  if ((l1_words_[idx / 64] & bit) == 0) {
    l1_[idx] = Chain{-1, -1};
    l1_words_[idx / 64] |= bit;
    l1_summary_ |= 1ull << (idx / 64);
  }
  link_tail(l1_[idx], slot);
}

void EventQueue::bucket_link(std::int32_t slot) {
  const SimEvent& ev = pool_[static_cast<std::size_t>(slot)];
  const std::size_t off = static_cast<std::size_t>(ev.time - window_start_);
  assert(off < window_);
  Bucket& bucket = buckets_[off];
  const std::uint64_t bit = 1ull << (off % 64);
  if ((words_[off / 64] & bit) == 0) {
    bucket.chain[0] = Chain{-1, -1};
    bucket.chain[1] = Chain{-1, -1};
    words_[off / 64] |= bit;
    summary_ |= 1ull << (off / 64);
  }
  link_tail(bucket.chain[ev.priority == 0 ? 0 : 1], slot);
  ++calendar_live_;
}

std::size_t EventQueue::next_populated(std::size_t from) const {
  if (from >= window_) return window_;
  std::size_t w = from / 64;
  std::uint64_t word = words_[w] & (~0ull << (from % 64));
  if (word == 0) {
    // summary_ has no bit past the window's last word.
    const std::uint64_t rest =
        w + 1 < kMaxWords ? summary_ & (~0ull << (w + 1)) : 0;
    if (rest == 0) return window_;
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
    new_start =
        align_down(pool_[static_cast<std::size_t>(l1_[idx].head)].time);
  }
  if (!far_.empty()) {
    const Tick far_start = align_down(far_.front().time);
    if (far_start < new_start) new_start = far_start;
  }
  window_start_ = new_start;
  cursor_ = 0;
  const Tick window_end = window_start_ + static_cast<Tick>(window_);
  // Far rung first: any (tick, priority) pair split across the two sources
  // has its far events carrying strictly smaller seqs (they were pushed
  // under an older window, or they would have gone onto the wheel), and
  // chain order must be seq order.  Far pops ascend in (time, priority,
  // seq), so among themselves they also append in order.
  while (!far_.empty() && far_.front().time < window_end) {
    bucket_link(alloc_slot(heap_pop(far_)));
  }
  if (idx < kL1 &&
      align_down(pool_[static_cast<std::size_t>(l1_[idx].head)].time) ==
          window_start_) {
    // Relink the chain in link order (= push = seq order); each slot lands
    // in the new window by construction and no record moves.
    std::int32_t slot = l1_[idx].head;
    l1_words_[idx / 64] &= ~(1ull << (idx % 64));
    if (l1_words_[idx / 64] == 0) l1_summary_ &= ~(1ull << (idx / 64));
    while (slot >= 0) {
      const std::int32_t next = next_[static_cast<std::size_t>(slot)];
      next_[static_cast<std::size_t>(slot)] = -1;
      bucket_link(slot);
      slot = next;
    }
  }
  assert(calendar_live_ > 0 && "rotate migrated nothing");
}

}  // namespace linbound
