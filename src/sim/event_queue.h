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
// The implementation is a two-level calendar queue keyed by tick.  Level 0
// is a window of per-tick buckets (two append-only lanes per bucket, one
// per priority class, drained via cursors) with a two-level bitmap to find
// the next populated tick.  Level 1 is a timing wheel of kL1 window-sized
// buckets covering the next ~16.8M ticks; each wheel bucket is an intrusive
// FIFO chain through a recycled slot pool, so a far-future push is one slot
// write plus a tail link -- no sifting.  When the window drains it rotates
// to the nearest populated wheel bucket and migrates that chain (a linear
// walk) into level 0.  A small binary-heap "far" rung catches times beyond
// the wheel span, and an "early" rung catches times pushed before the
// current window start (possible only through out-of-order push patterns
// in tests; the simulator always pushes at t >= now).  Push and pop are
// amortized O(1): an event is appended once, migrated at most once, and
// popped once.
//
// The seed binary min-heap survives in tests/reference_heap.h as the
// pop-order oracle the calendar is fuzzed and log-replayed against.
//
// Events are tagged 64-byte PODs, not closures: the hot-path kinds
// (deliveries, timers, invocations, crash/recover) carry their operands
// inline so pushing them allocates nothing and every append or migration
// moves one cache line.  Only generic kCall events (scenario glue via
// Simulator::call_at) carry a std::function, parked in a side pool.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
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
  /// ~288 KB of bucket and wheel storage arrives with the first push (or
  /// warm_buckets), so a system built and torn down unrun stays cheap.
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

  /// Pre-size internal storage for roughly `events` simultaneously pending
  /// events (workload size hints; see Simulator::reserve).  Never shrinks.
  void reserve(std::size_t events);

  /// Pre-size every calendar bucket's lanes for `per_lane` same-tick
  /// events.  Bucket lanes keep their capacity across window rotations, so
  /// this plus reserve() makes a steady-state run's pushes allocation-free
  /// from the first event on, instead of after the first window's warm-up.
  void warm_buckets(std::size_t per_lane);

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
  void allocate_calendar();  ///< size buckets_ and l1_ (first use)
  /// Window size in ticks (one bucket per tick); power of two.  4096 ticks
  /// covers several message-delay bounds (default d = 1000), so in steady
  /// state nearly every delivery/timer lands in a bucket and only far-future
  /// scheduling (open-loop invocation batches) touches the wheel.
  static constexpr std::size_t kWindow = 4096;
  static constexpr std::size_t kLogWindow = 12;
  static constexpr std::size_t kWords = kWindow / 64;
  /// Level-1 wheel: kL1 buckets of kWindow ticks each.  The span (~16.8M
  /// ticks) comfortably exceeds any scheduling horizon the workloads use
  /// (open-loop batches reach a few million ticks ahead), so the far rung
  /// is empty in practice.  Within the live range (window_start_,
  /// window_start_ + kSpan) no two event times can alias one wheel index,
  /// so index order equals time order.
  static constexpr std::size_t kL1 = 4096;
  static constexpr std::size_t kL1Words = kL1 / 64;
  static constexpr Tick kSpan = static_cast<Tick>(kWindow) * static_cast<Tick>(kL1);

  static constexpr Tick align_down(Tick t) {
    return t & ~static_cast<Tick>(kWindow - 1);
  }
  static constexpr std::size_t wheel_index(Tick t) {
    return static_cast<std::size_t>(t >> kLogWindow) & (kL1 - 1);
  }

  struct Bucket {
    /// lane[0] = kDelivery, lane[1] = kNormal; append-only, drained via
    /// pos[]. Within a lane events carry increasing seq, so lane order ==
    /// (priority, seq) order and a bucket pops lane 0 before lane 1 --
    /// exactly the (time, priority, seq) tie-break.
    std::vector<SimEvent> lane[2];
    std::size_t pos[2] = {0, 0};

    bool drained() const {
      return pos[0] >= lane[0].size() && pos[1] >= lane[1].size();
    }
    void reset() {
      lane[0].clear();
      lane[1].clear();
      pos[0] = pos[1] = 0;
    }
  };

  /// One wheel bucket: an intrusive FIFO chain (head/tail slot indices into
  /// l1_pool_, links in l1_next_).  Appending at the tail keeps each chain
  /// in push (= seq) order, which is exactly the order a level-0 lane needs.
  struct L1Bucket {
    std::int32_t head = -1;
    std::int32_t tail = -1;
  };

  /// Append into the bucket for `ev.time` (must lie in the current window).
  void bucket_insert(const SimEvent& ev);
  /// Append onto the wheel chain for `ev.time` (must lie past the window
  /// but within the wheel span).
  void l1_insert(const SimEvent& ev);
  /// Offset (>= from) of the next populated bucket; kWindow when none.
  std::size_t next_populated(std::size_t from) const;
  /// Wheel index (circularly >= from) of the next populated chain; kL1 when
  /// the whole wheel is empty.
  std::size_t l1_next_index(std::size_t from) const;
  /// Move the window to the nearest pending source -- the closest populated
  /// wheel chain or the far-rung minimum -- and migrate everything that
  /// lands in the new window.  The far rung drains first: for any (tick,
  /// priority) pair split across the two sources, the far events carry
  /// strictly smaller seqs (they were pushed under an older window, or they
  /// would have gone onto the wheel), and lane order must be seq order.
  /// Precondition: no live bucketed event, and the wheel or far rung holds
  /// at least one.  Postcondition: at least one live bucketed event.
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

  std::vector<Bucket> buckets_;          ///< index = time - window_start_
  std::uint64_t words_[kWords] = {};     ///< bit b: bucket b populated
  std::uint64_t summary_ = 0;            ///< bit w: words_[w] != 0
  Tick window_start_ = 0;                ///< first tick covered by buckets_
  std::size_t cursor_ = 0;               ///< scan hint: no live bucket below it
  std::size_t calendar_live_ = 0;        ///< events currently in buckets
  /// Level-1 wheel: chains indexed by wheel_index(time), slots recycled
  /// through an intrusive free list (l1_free_ chains through l1_next_), so
  /// a warmed-up run never grows the pool.
  std::vector<L1Bucket> l1_;             ///< kL1 chains
  std::vector<SimEvent> l1_pool_;        ///< chain slot storage
  std::vector<std::int32_t> l1_next_;    ///< chain links, parallel to l1_pool_
  std::int32_t l1_free_ = -1;            ///< free-slot list head
  std::uint64_t l1_words_[kL1Words] = {};  ///< bit b: chain b populated
  std::uint64_t l1_summary_ = 0;           ///< bit w: l1_words_[w] != 0
  /// Far rung: events at time >= window_start_ + kSpan (binary heap; empty
  /// under every shipped workload -- the wheel span exceeds their horizons).
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
