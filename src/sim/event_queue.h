// The simulator's future-event list.
//
// Ordered by (time, priority, sequence number): events at equal virtual
// times fire by priority class first (message deliveries before timers --
// the paper's model lets a receive step precede a timer step at the same
// clock instant, and Lemma C.9's "added no later than the respond time"
// relies on it), then in insertion order.  This total order is the
// simulator's determinism contract: every run is a pure function of its
// configuration (DESIGN.md "determinism everywhere").
//
// The implementation is a two-level calendar queue keyed by tick, with
// every bucketed event held in one recycled slot pool.  Level 0 is a window
// of per-tick buckets with a two-level bitmap to find the next populated
// tick; each bucket is two intrusive FIFO chains through the pool, one per
// priority class.  The window holds 256..4096 ticks, fixed when the
// calendar is first allocated from the run's reserve() hint (Brown's
// calendar queue likewise sizes its buckets to the pending population), so
// a small run does not pay for a large run's bucket array.  Level 1 is a
// timing wheel of kL1 window-sized buckets covering the next window * kL1
// ticks (~16.8M at the full window), each one chain through the same pool,
// so any push within the wheel span is one slot write plus a tail link --
// no sifting.  When the window drains it rotates to the nearest populated
// wheel bucket and relinks that chain (a linear walk, no record copies)
// into the level-0 chains.  A small binary-heap "far" rung catches times
// beyond the wheel span, and an "early" rung catches times pushed before
// the current window start (possible only through out-of-order push
// patterns in tests; the simulator always pushes at t >= now).  Push and
// pop are amortized O(1): an event is written once, relinked at most once,
// and popped once.
//
// The seed binary min-heap survives in tests/reference_heap.h as the
// pop-order oracle the calendar is fuzzed and log-replayed against.
//
// Events are tagged 64-byte PODs, not closures: the hot-path kinds
// (deliveries, timers, invocations, crash/recover) carry their operands
// inline so pushing them allocates nothing once the slot pool is sized.
// Only generic kCall events (scenario glue via Simulator::call_at) carry a
// std::function, parked in a side pool.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/time.h"
#include "common/timestamp.h"

namespace linbound {

struct MessagePayload;

/// Priority classes for simultaneous events (lower fires first).
enum class EventPriority : int {
  kDelivery = 0,  ///< message receipt
  kNormal = 1,    ///< timers, invocations, scenario callbacks
};

/// What an event does when it fires; the Simulator switches on this.
enum class EventKind : std::uint8_t {
  kCall,     ///< run `fn` (scenario callbacks)
  kInvoke,   ///< dispatch invocation `a` (= token) on `pid`
  kDeliver,  ///< deliver message record `a` carrying `payload` (arena-owned)
  kTimer,    ///< fire timer `a` (= id) on `pid` with (tag_kind, tag_ts, epoch)
  kCrash,    ///< crash `pid`
  kRecover,  ///< recover `pid`
};

/// One pending event: the queue's storage record, packed to one cache line.
/// The (time, priority, seq) order key is assigned by push_typed.
/// (perfbench/harness.cpp builds kTimer events to replay a queue log.)
struct SimEvent {
  Tick time = 0;
  std::uint64_t seq = 0;                    ///< insertion order (tie-break)
  std::int64_t a = 0;                       ///< token / timer id / record index
  const MessagePayload* payload = nullptr;  ///< deliver
  Tick tag_clock = 0;                       ///< timer: TimerTag::ts.clock_time
  std::int32_t fn_slot = -1;                ///< kCall: closure pool slot
  ProcessId pid = kNoProcess;               ///< every kind but kCall
  ProcessId tag_pid = kNoProcess;           ///< timer: TimerTag::ts.pid
  std::int32_t epoch = 0;                   ///< timer: arming incarnation
  std::int32_t tag_kind = 0;                ///< timer: TimerTag::kind
  EventKind kind = EventKind::kCall;
  std::uint8_t priority = 1;

  Timestamp tag_ts() const { return Timestamp{tag_clock, tag_pid}; }
};
static_assert(sizeof(SimEvent) <= 64, "SimEvent outgrew a cache line");

/// The one queue implementation.  A single-value enum kept only because
/// perfbench/harness.cpp names it; remove with the next benchmark change.
enum class EventQueueImpl { kCalendar };

class EventQueue {
 public:
  /// The argument is ignored (there is one implementation); the parameter
  /// stays because perfbench/harness.cpp passes it.  Allocates nothing: the
  /// bucket and wheel chain heads (16 B per window tick plus 32 KB of wheel;
  /// 96 KB at the full window) arrive with the first push, uninitialised
  /// (see Chain), so a run touches only the heads it uses.
  explicit EventQueue(EventQueueImpl = EventQueueImpl::kCalendar);

  /// Insert a generic callback event at `time`.  Returns the sequence
  /// number assigned.
  std::uint64_t push(Tick time, std::function<void()> fire) {
    return push(time, EventPriority::kNormal, std::move(fire));
  }
  std::uint64_t push(Tick time, EventPriority priority, std::function<void()> fire);

  /// Insert a typed event; `ev.time`, `ev.priority` and `ev.seq` are
  /// assigned here (callers fill only the kind and its operands).  Also
  /// called by perfbench/harness.cpp's queue-log replay.
  std::uint64_t push_typed(Tick time, EventPriority priority, SimEvent ev);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Time of the earliest event; kTimeInfinity when empty.  Logically
  /// const; it may rotate the window to answer exactly (the same internal
  /// restructure the next pop would have done -- pop order is unaffected).
  Tick next_time() const;

  /// Remove and return the earliest event (perfbench/harness.cpp reads its
  /// `time`).  A kCall event's closure moves out of the pool and is held
  /// for take_call.  Precondition: !empty() -- asserted in debug builds;
  /// calling pop on an empty queue is a bug, not a recoverable condition.
  SimEvent pop();

  /// The closure of the kCall event pop() just returned, moved out.
  std::function<void()> take_call() { return std::move(popped_call_); }

  /// Pre-size the slot pool for roughly `events` simultaneously pending
  /// events (workload size hints; see Simulator::reserve).  Slots recycle
  /// through a free list, so a run whose pending count stays within the
  /// hint never allocates on push.  The largest hint given before the first
  /// push also picks the window: bit_ceil(events) clamped to [kMinWindow,
  /// kMaxWindow], kMaxWindow with no hint; a later hint leaves it alone.
  /// The closure pool is not sized here: invocations are typed events, and
  /// only batch chaining, monitor polls and scenario glue park closures,
  /// a handful at a time.  Never shrinks.  Throws std::length_error past
  /// the int32 slot range.
  void reserve(std::size_t events);

  /// Level-0 window in ticks: 0 until the first push allocates the
  /// calendar, then the size the reserve() hints picked (tests).
  std::size_t window() const { return window_; }

  /// Peak number of simultaneously pending events seen so far -- the pool
  /// high-water mark the reserve() hints should cover (and a
  /// perfbench/harness.cpp per-layer metric).
  std::size_t high_water() const { return high_water_; }

  /// Optional push/pop log for queue-level replay (the tests-side oracle
  /// replay and perfbench/harness.cpp): when set, every push appends
  /// (time << 1) | priority and every pop appends kPopSentinel, so the
  /// exact interleaving of one run can be replayed through a bare queue.
  /// Costs one predictable branch per operation; null by default.  Entries
  /// beyond `log_cap` are dropped.
  static constexpr std::int64_t kPopSentinel = -1;
  void set_log(std::vector<std::int64_t>* log, std::size_t log_cap) {
    log_ = log;
    log_cap_ = log_cap;
  }

 private:
  /// Strict "a fires after b" on (time, priority, seq).
  static bool later(const SimEvent& a, const SimEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq > b.seq;
  }

  // --- binary-heap rungs (far and early) ---
  static void heap_push(std::vector<SimEvent>& heap, const SimEvent& ev);
  static SimEvent heap_pop(std::vector<SimEvent>& heap);

  // --- calendar machinery ---
  /// Pick the window from hint_ and allocate buckets_ and l1_ (first use).
  void allocate_calendar();
  /// Window bounds in ticks (one bucket per tick; powers of two).  The full
  /// 4096-tick window covers several message-delay bounds (default d =
  /// 1000), so in steady state nearly every delivery/timer of a large run
  /// lands in a bucket and only far-future scheduling (open-loop invocation
  /// batches) touches the wheel.  A run hinting at most a few hundred
  /// pending events rotates a smaller window more often instead.
  static constexpr std::size_t kMinWindow = 256;
  static constexpr std::size_t kMaxWindow = 4096;
  static constexpr std::size_t kMaxWords = kMaxWindow / 64;
  /// Level-1 wheel: kL1 buckets of one window each, at every window size.
  /// The span is window * kL1 ticks (1.05M..16.8M); anything past it
  /// takes the far rung.  Within the live range (window_start_,
  /// window_start_ + span_) no two event times can alias one wheel index,
  /// so index order equals time order.
  static constexpr std::size_t kL1 = 4096;
  static constexpr std::size_t kL1Words = kL1 / 64;

  Tick align_down(Tick t) const {
    return t & ~static_cast<Tick>(window_ - 1);
  }
  std::size_t wheel_index(Tick t) const {
    return static_cast<std::size_t>(t >> log_window_) & (kL1 - 1);
  }

  /// One intrusive FIFO chain: head/tail slot indices into pool_, links in
  /// next_.  Appending at the tail keeps a chain in push (= seq) order.
  /// Deliberately without initialisers: a bucket's or wheel chain's heads
  /// are trusted only while its bitmap bit is set.  bucket_link and l1_link
  /// reset a chain whose bit is clear before linking into it, and rotate()
  /// only clears the bit of the wheel chain it relinks, so heads no event
  /// ever used are never written.
  struct Chain {
    std::int32_t head;
    std::int32_t tail;
  };

  /// One level-0 bucket: chain[0] = kDelivery, chain[1] = kNormal.  Within
  /// a chain events carry increasing seq, so a bucket that pops chain 0
  /// before chain 1 pops in exactly the (time, priority, seq) tie-break.
  struct Bucket {
    Chain chain[2];

    bool drained() const { return chain[0].head < 0 && chain[1].head < 0; }
  };

  /// Write `ev` into a free slot (recycled, or grown at the pool's end);
  /// the slot's link is cleared.
  std::int32_t alloc_slot(const SimEvent& ev);
  /// Append `slot` at the tail of `chain`.
  void link_tail(Chain& chain, std::int32_t slot);
  /// Link a pooled event into the bucket for its time (which must lie in
  /// the current window).
  void bucket_link(std::int32_t slot);
  /// Append a pooled event onto the wheel chain for its time (which must
  /// lie past the window but within the wheel span).
  void l1_link(std::int32_t slot);
  /// Offset (>= from) of the next populated bucket; window_ when none.
  std::size_t next_populated(std::size_t from) const;
  /// Wheel index (circularly >= from) of the next populated chain; kL1 when
  /// the whole wheel is empty.
  std::size_t l1_next_index(std::size_t from) const;
  /// Move the window to the nearest pending source -- the closest populated
  /// wheel chain or the far-rung minimum -- and move everything that lands
  /// in the new window into level 0.  The far rung drains first: for any
  /// (tick, priority) pair split across the two sources, the far events
  /// carry strictly smaller seqs (they were pushed under an older window,
  /// or they would have gone onto the wheel), and chain order must be seq
  /// order.  Precondition: no live bucketed event, and the wheel or far
  /// rung holds at least one.  Postcondition: at least one live bucketed
  /// event.
  void rotate();

  void log_push(Tick time, int priority) {
    if (log_ && log_->size() < log_cap_) {
      log_->push_back((time << 1) | static_cast<std::int64_t>(priority));
    }
  }
  void log_pop() {
    if (log_ && log_->size() < log_cap_) log_->push_back(kPopSentinel);
  }

  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;        ///< total events across all structures
  std::size_t high_water_ = 0;  ///< max size_ ever reached

  /// The one slot pool: every level-0 and wheel event lives in pool_, its
  /// chain link in next_; free slots chain through next_ from free_, so a
  /// run within its reserve() hint never grows the pool.
  std::vector<SimEvent> pool_;
  std::vector<std::int32_t> next_;       ///< chain links, parallel to pool_
  std::int32_t free_ = -1;               ///< free-slot list head

  /// Largest reserve() hint so far; allocate_calendar sizes the window.
  std::size_t hint_ = 0;
  std::size_t window_ = 0;               ///< ticks per window; 0 = unallocated
  unsigned log_window_ = 0;              ///< log2(window_)
  Tick span_ = 0;                        ///< window_ * kL1: the wheel's reach
  std::unique_ptr<Bucket[]> buckets_;    ///< window_; index = time - window_start_
  std::uint64_t words_[kMaxWords] = {};  ///< bit b: bucket b populated
  std::uint64_t summary_ = 0;            ///< bit w: words_[w] != 0
  Tick window_start_ = 0;                ///< first tick covered by buckets_
  std::size_t cursor_ = 0;               ///< scan hint: no live bucket below it
  std::size_t calendar_live_ = 0;        ///< events currently in buckets
  std::unique_ptr<Chain[]> l1_;          ///< kL1 wheel chains
  std::uint64_t l1_words_[kL1Words] = {};  ///< bit b: chain b populated
  std::uint64_t l1_summary_ = 0;           ///< bit w: l1_words_[w] != 0
  /// Far rung: events at time >= window_start_ + span_ (binary heap; empty
  /// at the full window under every shipped workload, whose horizons the
  /// 16.8M-tick span exceeds).
  std::vector<SimEvent> far_;
  /// Events pushed at time < window_start_ (the window never moves back).
  /// Empty in simulator runs -- the simulator pushes at t >= now -- but
  /// out-of-order test patterns land here and stay totally ordered.
  std::vector<SimEvent> early_;
  /// Parked kCall closures, addressed by SimEvent::fn_slot; slots recycle
  /// through the free list so a warmed-up run never grows the pool.
  std::vector<std::function<void()>> fn_pool_;
  std::vector<std::int32_t> free_fn_slots_;
  std::function<void()> popped_call_;  ///< see take_call

  std::vector<std::int64_t>* log_ = nullptr;
  std::size_t log_cap_ = 0;
};

}  // namespace linbound
