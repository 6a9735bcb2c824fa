// The allocation-free-steady-state contract (DESIGN.md section 15): with
// the pools sized from the workload bound (sim/pool_set.h knobs on
// HeavyTrafficOptions plus ReplicaProcess::reserve_pending), a warmed-up
// hardened Algorithm 1 run performs ZERO heap allocations -- counted by the
// global operator new interposer in common/alloc_count.cpp, which this test
// links (alone among the tier-1 tests; see tests/CMakeLists.txt).
//
// The split-run trick: Simulator::run_until(warmup) then run() produces the
// exact same trace as a single run() over the schedule, so snapshotting the
// counter between the two halves measures the steady state of the *real*
// run, not of a special instrumented configuration.
#include <gtest/gtest.h>

#include <memory>

#include "checker/streaming_checker.h"
#include "common/alloc_count.h"
#include "core/system.h"
#include "core/workload.h"
#include "shard/shard.h"
#include "sim/event_queue.h"
#include "types/register_type.h"

namespace linbound {
namespace {

constexpr int kN = 4;
constexpr std::size_t kOps = 10'000;

SystemTiming timing() {
  SystemTiming t;
  t.d = 1000;
  t.u = 400;
  t.eps = 300;
  return t;
}

TEST(AllocFree, HardenedSteadyStateAllocatesNothing) {
  ASSERT_TRUE(alloc_counting_enabled())
      << "test_alloc_free must link linbound_alloccount (COUNT_ALLOCS)";

  SystemOptions sys;
  sys.n = kN;
  sys.timing = timing();
  sys.x = 0;
  HardenedParams hp;  // retransmitting link + dedup tables
  hp.max_attempts = 2;  // keeps d_eff -- and hence the run length -- small
  sys.hardened = hp;
  sys.max_events = kOps * 100 + 100'000;

  ReplicaSystem system(std::make_shared<RegisterModel>(), sys);
  for (ProcessId p = 0; p < kN; ++p) system.replica(p).reserve_pending(256);

  // The hardened algorithm's waits widen to the effective delivery bound
  // d_eff, so the open-loop gap must clear d_eff + eps, not d + eps.
  const Tick d_eff = hp.effective_d(timing());
  HeavyTrafficOptions w;
  w.clients = kN;
  w.total_ops = kOps;
  w.min_gap = 2 * (d_eff + timing().eps);
  w.jitter = 997;
  // Size every pool for the whole run (growth is monotonic, so warm-up
  // alone cannot protect a pool the steady state keeps growing): hardened
  // n=4 builds broadcast + link frames + acks + destructor nodes per op.
  w.messages_per_op = 24;
  w.payload_bytes_per_op = 1024;
  w.timer_slots_per_process = 256;

  HeavyTrafficWorkload workload(system.sim(), w);
  system.sim().start();
  workload.arm();

  // Warm-up: ~15% of the run, far past every high-water mark (open-loop
  // arrivals are steady from the start, so capacities peak early).
  const Tick warmup =
      static_cast<Tick>(kOps / kN) * (w.min_gap + w.jitter / 2) * 15 / 100;
  system.sim().run_until(warmup);
  const std::uint64_t before = heap_allocs();
  // Debugging a regression here: set_alloc_trap(true) makes the first
  // steady-state allocation dump a backtrace and exit (common/alloc_count.h).
  EXPECT_GT(before, 0u);  // the interposer is live and counted the warm-up

  ASSERT_TRUE(system.sim().run());
  const std::uint64_t steady = heap_allocs() - before;

  const Trace& trace = system.sim().trace();
  ASSERT_TRUE(trace.complete());
  ASSERT_EQ(trace.ops.size(), kOps);
  EXPECT_EQ(steady, 0u)
      << "steady-state heap allocations leaked into the op pipeline";
}

// The checked heavy-traffic run: Algorithm 1 with a StreamingChecker
// attached inline.  The simulator side allocates nothing once its pools are
// sized; the checker's scratch (segment buffers, visited memo, search
// stack, state set) is reused by every segment, and its witness log grows
// by amortized doubling.  What remains are the copy-on-write clones of
// object states (spec/snapshot.h) -- a state plus a shared_ptr control block
// whenever a segment applies a mutator to a shared state -- about 1.9 per
// operation.
TEST(AllocFree, CheckedHeavyTrafficAllocatesUnderTwoPerOp) {
  ASSERT_TRUE(alloc_counting_enabled());
  constexpr std::size_t kCheckedOps = 100'000;
  SystemOptions sys;
  sys.n = kN;
  sys.timing = timing();
  sys.x = 0;
  sys.max_events = kCheckedOps * 40 + 100'000;
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, sys);
  for (ProcessId p = 0; p < kN; ++p) system.replica(p).reserve_pending(256);

  HeavyTrafficOptions w;
  w.clients = kN;
  w.total_ops = kCheckedOps;
  w.min_gap = 4 * timing().d;
  w.jitter = 997;
  w.messages_per_op = 12;
  w.payload_bytes_per_op = 256;
  w.timer_slots_per_process = 1024;
  HeavyTrafficWorkload workload(system.sim(), w);
  StreamingChecker checker(*model);
  checker.attach(system.sim());
  system.sim().start();
  workload.arm();

  const Tick warmup = static_cast<Tick>(kCheckedOps / kN) *
                      (w.min_gap + w.jitter / 2) * 15 / 100;
  system.sim().run_until(warmup);
  const std::size_t ops_before = checker.ops_seen();
  const std::uint64_t before = heap_allocs();
  ASSERT_TRUE(system.sim().run());
  const std::uint64_t steady = heap_allocs() - before;
  const std::size_t steady_ops = checker.ops_seen() - ops_before;

  ASSERT_TRUE(checker.finalize().ok);
  ASSERT_GT(steady_ops, kCheckedOps / 2);
  const double per_op =
      static_cast<double>(steady) / static_cast<double>(steady_ops);
  EXPECT_LT(per_op, 2.0) << steady << " allocations over " << steady_ops
                         << " steady-state ops";
}

// The event queue keeps every bucketed and wheel event in one recycled
// slot pool: once reserve() covers the pending count, refilling a drained
// queue -- in-window spread, far-future wheel chains, same-tick ties in
// both priority lanes -- allocates nothing, round after round.
TEST(AllocFree, QueueRefillAfterDrainAllocatesNothing) {
  ASSERT_TRUE(alloc_counting_enabled());
  constexpr std::size_t kEvents = 6'000;
  EventQueue q;
  q.reserve(kEvents);
  Tick base = 0;
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t before = heap_allocs();
    SimEvent ev;
    ev.kind = EventKind::kTimer;
    for (std::size_t i = 0; i < kEvents; ++i) {
      ev.a = static_cast<std::int64_t>(i);
      Tick t;
      switch (i % 3) {
        case 0:  // spread over the current window
          t = base + static_cast<Tick>(i % 4000);
          break;
        case 1:  // the wheel, up to ~40 windows out
          t = base + 4096 * static_cast<Tick>(1 + i % 40) +
              static_cast<Tick>(i % 97);
          break;
        default:  // same-tick ties
          t = base + 17;
          break;
      }
      q.push_typed(t, i % 2 == 0 ? EventPriority::kDelivery
                                 : EventPriority::kNormal,
                   ev);
    }
    Tick last = base;
    while (!q.empty()) {
      const SimEvent out = q.pop();
      ASSERT_GE(out.time, last);
      last = out.time;
    }
    const std::uint64_t allocs = heap_allocs() - before;
    // Round 0 allocates the calendar's bucket and wheel heads; after that
    // the pool is warm.
    if (round > 0) {
      EXPECT_EQ(allocs, 0u) << "round " << round;
    }
    base = last + 1;
  }
}

// A sharded run's allocations are per-shard set-up only: the calendar
// queue holds no per-bucket storage, so 64 shards cost well under one
// heap allocation per operation.
TEST(AllocFree, ShardedRunAllocatesUnderOnePerOp) {
  ASSERT_TRUE(alloc_counting_enabled());
  ShardOptions opt;
  opt.shards = 64;
  opt.total_ops = 100'000;
  opt.timing = timing();
  ShardedSimulation sim(opt);
  const std::uint64_t before = heap_allocs();
  const ShardRunReport report = sim.run(1);
  const std::uint64_t allocs = heap_allocs() - before;
  ASSERT_EQ(report.aborted, 0);
  ASSERT_GE(report.total_ops, opt.total_ops);
  const double per_op =
      static_cast<double>(allocs) / static_cast<double>(report.total_ops);
  EXPECT_LT(per_op, 0.5) << allocs << " allocations over "
                         << report.total_ops << " ops";
}

}  // namespace
}  // namespace linbound
