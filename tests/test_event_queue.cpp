#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "reference_heap.h"

namespace linbound {
namespace {

/// Pop the next event (a kCall) and run its closure.
void fire_next(EventQueue& q) {
  q.pop();
  q.take_call()();
}

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(30); });
  q.push(10, [&] { fired.push_back(10); });
  q.push(20, [&] { fired.push_back(20); });
  while (!q.empty()) fire_next(q);
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 30}));
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) fire_next(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, MixedTimesAndTies) {
  EventQueue q;
  std::vector<std::pair<Tick, int>> fired;
  q.push(2, [&] { fired.push_back({2, 0}); });
  q.push(1, [&] { fired.push_back({1, 0}); });
  q.push(2, [&] { fired.push_back({2, 1}); });
  q.push(1, [&] { fired.push_back({1, 1}); });
  while (!q.empty()) fire_next(q);
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0], (std::pair<Tick, int>{1, 0}));
  EXPECT_EQ(fired[1], (std::pair<Tick, int>{1, 1}));
  EXPECT_EQ(fired[2], (std::pair<Tick, int>{2, 0}));
  EXPECT_EQ(fired[3], (std::pair<Tick, int>{2, 1}));
}

TEST(EventQueue, NextTimeTracksMinimum) {
  EventQueue q;
  q.push(50, [] {});
  EXPECT_EQ(q.next_time(), 50);
  q.push(20, [] {});
  EXPECT_EQ(q.next_time(), 20);
  q.pop();
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, LargeRandomishWorkload) {
  EventQueue q;
  // Deterministic pseudo-random times; verify global ordering on pop.
  std::uint64_t s = 12345;
  for (int i = 0; i < 1000; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    q.push(static_cast<Tick>(s % 97), [] {});
  }
  Tick last = -1;
  while (!q.empty()) {
    SimEvent e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

TEST(EventQueue, DeliveriesOutrankTimersAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  q.push(10, [&] { fired.push_back(1); });  // "timer", inserted first
  q.push(10, EventPriority::kDelivery, [&] { fired.push_back(0); });
  q.push(10, [&] { fired.push_back(2); });
  q.push(10, EventPriority::kDelivery, [&] { fired.push_back(0); });
  while (!q.empty()) fire_next(q);
  EXPECT_EQ(fired, (std::vector<int>{0, 0, 1, 2}));
}

TEST(EventQueue, PriorityDoesNotLeakAcrossTimes) {
  EventQueue q;
  std::vector<int> fired;
  q.push(5, [&] { fired.push_back(5); });
  q.push(4, EventPriority::kDelivery, [&] { fired.push_back(4); });
  q.push(3, [&] { fired.push_back(3); });
  while (!q.empty()) fire_next(q);
  EXPECT_EQ(fired, (std::vector<int>{3, 4, 5}));
}

TEST(EventQueue, PushDuringDrainIsAllowed) {
  EventQueue q;
  std::vector<int> fired;
  q.push(1, [&] {
    fired.push_back(1);
    q.push(2, [&] { fired.push_back(2); });
  });
  while (!q.empty()) fire_next(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ClosureSlotsRecycle) {
  // Each kCall closure parks in a pool slot from push to pop; slots recycle,
  // so interleaved push/fire cycles never confuse two closures.
  EventQueue q;
  std::vector<int> fired;
  for (int round = 0; round < 50; ++round) {
    q.push(round, [&fired, round] { fired.push_back(2 * round); });
    q.push(round, [&fired, round] { fired.push_back(2 * round + 1); });
    fire_next(q);
  }
  while (!q.empty()) fire_next(q);
  std::vector<int> sorted = fired;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(fired, sorted);
  EXPECT_EQ(fired.size(), 100u);
}

TEST(EventQueue, TypedEventsCarryNoClosure) {
  EventQueue q;
  SimEvent ev;
  ev.kind = EventKind::kTimer;
  ev.a = 7;
  ev.tag_clock = 123;
  ev.tag_pid = 2;
  q.push_typed(4, EventPriority::kNormal, ev);
  const SimEvent out = q.pop();
  EXPECT_EQ(out.kind, EventKind::kTimer);
  EXPECT_EQ(out.a, 7);
  EXPECT_EQ(out.fn_slot, -1);
  EXPECT_EQ(out.tag_ts(), (Timestamp{123, 2}));
}

// ---------------------------------------------------------------------------
// Calendar queue vs the seed binary heap (tests/reference_heap.h): the two
// must agree on every pop -- (time, priority, seq) plus the payload operand
// -- for any interleaving of pushes and pops.  The fuzzers below drive both
// through identical streams chosen to hit every calendar path: dense
// tie-heavy buckets, in-window spreads, the level-1 wheel and window
// rotation (far-future times), the far rung beyond the wheel span plus
// wheel wraparound, and the early rung (pushes behind the window start).
// ---------------------------------------------------------------------------

/// Pop both queues once and compare the full ordering key.  Returns false
/// (after flagging) on the first divergence so callers can stop early.
bool same_pop(EventQueue& cal, ReferenceHeap& heap, Tick* popped_time) {
  EXPECT_EQ(cal.empty(), heap.empty());
  if (cal.empty() || heap.empty()) return false;
  const SimEvent a = cal.pop();
  const SimEvent b = heap.pop();
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.priority, b.priority);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.a, b.a);
  if (popped_time) *popped_time = a.time;
  return a.time == b.time && a.priority == b.priority && a.seq == b.seq &&
         a.a == b.a;
}

/// Random interleaved push/pop stream through the calendar and the heap.
/// `spread` is the push horizon above the last popped time,
/// `far_p`/`far_spread` sends that fraction of pushes into the overflow
/// rung, and a fixed 10% slice pushes *behind* the last popped time (the
/// early rung once the window rotated past it).  Every step also
/// cross-checks next_time().
void differential_fuzz(std::uint64_t seed, int steps, Tick spread,
                       double far_p, Tick far_spread, double pop_p) {
  EventQueue cal;
  ReferenceHeap heap;
  Rng rng(seed);
  Tick horizon = 0;  // latest popped time
  std::int64_t next_id = 0;
  for (int i = 0; i < steps; ++i) {
    ASSERT_EQ(cal.next_time(), heap.next_time());
    ASSERT_EQ(cal.size(), heap.size());
    if (!cal.empty() && rng.chance(pop_p)) {
      Tick t = 0;
      ASSERT_TRUE(same_pop(cal, heap, &t));
      horizon = std::max(horizon, t);
      continue;
    }
    Tick t;
    const double r = rng.uniform01();
    if (r < far_p) {
      t = horizon + rng.uniform(0, far_spread);
    } else if (r < far_p + 0.1) {
      t = std::max<Tick>(0, horizon - rng.uniform(0, spread));
    } else {
      t = horizon + rng.uniform(0, spread);
    }
    SimEvent ev;
    ev.kind = EventKind::kTimer;
    ev.a = next_id++;
    const EventPriority priority =
        rng.chance(0.5) ? EventPriority::kDelivery : EventPriority::kNormal;
    cal.push_typed(t, priority, ev);
    heap.push_typed(t, priority, ev);
  }
  while (!cal.empty()) {
    ASSERT_TRUE(same_pop(cal, heap, nullptr));
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(cal.next_time(), kTimeInfinity);
  EXPECT_EQ(heap.next_time(), kTimeInfinity);
}

TEST(EventQueueDifferential, FuzzTieHeavy) {
  // Times land on ~8 distinct ticks: buckets fill with long two-lane runs,
  // so the (priority, seq) tie-break carries all the ordering weight.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    differential_fuzz(seed, 20'000, /*spread=*/8, /*far_p=*/0.0,
                      /*far_spread=*/0, /*pop_p=*/0.45);
  }
}

TEST(EventQueueDifferential, FuzzInWindowSpread) {
  // Spread just under the 4096-tick window: mostly bucket traffic with
  // occasional spill into the overflow rung via the behind/ahead mix.
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    differential_fuzz(seed, 20'000, /*spread=*/3500, /*far_p=*/0.0,
                      /*far_spread=*/0, /*pop_p=*/0.45);
  }
}

TEST(EventQueueDifferential, FuzzOverflowAndRotation) {
  // A third of the pushes land far beyond the window (up to ~30 windows
  // out), forcing overflow migration and repeated rotation.
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) {
    differential_fuzz(seed, 20'000, /*spread=*/2000, /*far_p=*/0.35,
                      /*far_spread=*/120'000, /*pop_p=*/0.5);
  }
}

TEST(EventQueueDifferential, FuzzBeyondWheelSpanAndWrap) {
  // Far pushes reach ~40M ticks out -- past the ~16.8M-tick wheel span, so
  // they land on the far rung -- and the popped horizon marches across
  // multiple spans, so wheel indexes wrap and recycle.
  for (std::uint64_t seed : {41ull, 42ull}) {
    differential_fuzz(seed, 20'000, /*spread=*/2000, /*far_p=*/0.3,
                      /*far_spread=*/40'000'000, /*pop_p=*/0.55);
  }
}

TEST(EventQueueDifferential, FuzzPopHeavyDrains) {
  // Pop-dominated: the queues run near-empty, so rotation fires on almost
  // every overflow push and the drained/reused paths get constant traffic.
  differential_fuzz(31, 20'000, /*spread=*/500, /*far_p=*/0.2,
                    /*far_spread=*/50'000, /*pop_p=*/0.7);
}

TEST(EventQueueCalendar, FarRungMergesBySeqOrder) {
  // A tick split across the far rung and the wheel must still fire in seq
  // order: the far-resident event was necessarily pushed under an older
  // window (or it would have gone onto the wheel), so rotation drains the
  // far rung into the window first.
  EventQueue q;
  SimEvent ev;
  ev.kind = EventKind::kTimer;
  // Beyond the wheel span from the initial window: the far rung.
  const std::uint64_t far_seq =
      q.push_typed(20'000'000, EventPriority::kNormal, ev);
  // Advance the window deep enough that tick 20M falls within the span.
  q.push_typed(4'000'000, EventPriority::kNormal, ev);
  EXPECT_EQ(q.pop().time, 4'000'000);
  // Same tick again, now within the span: these land on the wheel with
  // larger seqs.
  const std::uint64_t wheel_seq1 =
      q.push_typed(20'000'000, EventPriority::kNormal, ev);
  const std::uint64_t wheel_seq2 =
      q.push_typed(20'000'000, EventPriority::kNormal, ev);
  EXPECT_EQ(q.next_time(), 20'000'000);
  EXPECT_EQ(q.pop().seq, far_seq);
  EXPECT_EQ(q.pop().seq, wheel_seq1);
  EXPECT_EQ(q.pop().seq, wheel_seq2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueCalendar, SparseRotationAcrossManyWindows) {
  // One event every ~2.4 windows: every pop after the first crosses empty
  // window space and must rotate straight to the overflow minimum.
  EventQueue q;
  for (int k = 9; k >= 0; --k) q.push(k * 10'000, [] {});
  Tick last = -1;
  int pops = 0;
  while (!q.empty()) {
    const SimEvent ev = q.pop();
    EXPECT_EQ(ev.time, pops * 10'000);
    EXPECT_GT(ev.time, last);
    last = ev.time;
    ++pops;
  }
  EXPECT_EQ(pops, 10);
}

TEST(EventQueueCalendar, EarlyRungFiresBeforeWindow) {
  // Rotate the window forward, then push behind it: the early rung must
  // order those events ahead of everything in the rotated window.
  EventQueue q;
  q.push(10'000, [] {});  // beyond the initial window: overflow rung
  q.push(1, [] {});
  EXPECT_EQ(q.pop().time, 1);
  EXPECT_EQ(q.pop().time, 10'000);  // rotation: window starts at 10'000 now
  q.push(5, [] {});                 // behind the window: early rung
  q.push(10'001, [] {});            // in the rotated window
  EXPECT_EQ(q.next_time(), 5);
  EXPECT_EQ(q.pop().time, 5);
  EXPECT_EQ(q.pop().time, 10'001);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueCalendar, DrainThenReuse) {
  EventQueue q;
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.next_time(), kTimeInfinity);
    // Reuse after a drain, including times *below* the previous round's
    // (the early rung): ordering must hold within each round regardless.
    const Tick base = 50'000 - round * 20'000;
    q.push(base + 7, [] {});
    q.push(base, [] {});
    q.push(base + 9'999, [] {});
    EXPECT_EQ(q.next_time(), base);
    EXPECT_EQ(q.pop().time, base);
    EXPECT_EQ(q.pop().time, base + 7);
    EXPECT_EQ(q.pop().time, base + 9'999);
  }
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, ReserveKeepsBehavior) {
  EventQueue q;
  q.reserve(10'000);
  q.warm_buckets(4);
  q.push(2, [] {});
  q.push(1, [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().time, 1);
  EXPECT_EQ(q.pop().time, 2);
}

TEST(EventQueue, LogRecordsInterleaving) {
  EventQueue q;
  std::vector<std::int64_t> log;
  q.set_log(&log, /*log_cap=*/8);
  q.push(5, [] {});                            // (5 << 1) | kNormal
  q.push(3, EventPriority::kDelivery, [] {});  // (3 << 1) | kDelivery
  q.pop();
  q.pop();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], (Tick{5} << 1) | 1);
  EXPECT_EQ(log[1], (Tick{3} << 1) | 0);
  EXPECT_EQ(log[2], EventQueue::kPopSentinel);
  EXPECT_EQ(log[3], EventQueue::kPopSentinel);
  // The cap drops further entries instead of growing without bound.
  q.set_log(&log, /*log_cap=*/4);
  q.push(9, [] {});
  EXPECT_EQ(log.size(), 4u);
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(EventQueueDeathTest, PopOnEmptyAssertsInDebug) {
  EXPECT_DEATH(
      {
        EventQueue q;
        q.pop();
      },
      "empty");
}

TEST(EventQueueDeathTest, PopAfterDrainAssertsInDebug) {
  EXPECT_DEATH(
      {
        EventQueue q;
        q.push(1, [] {});
        q.pop();
        q.pop();  // drained: popping again is a bug, not kTimeInfinity
      },
      "empty");
}
#endif

}  // namespace
}  // namespace linbound
