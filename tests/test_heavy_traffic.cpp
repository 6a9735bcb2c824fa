// The open-loop HeavyTrafficWorkload (core/workload.h), plus the calendar
// EventQueue checked against the seed binary heap (tests/reference_heap.h)
// on the exact push/pop interleavings of real runs: clean, fault-injected
// hardened, and churned recoverable with stalls.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/driver.h"
#include "core/system.h"
#include "core/workload.h"
#include "fault/churn.h"
#include "fault/fault_policy.h"
#include "reference_heap.h"
#include "sim/trace_io.h"
#include "types/register_type.h"

namespace linbound {
namespace {

SystemTiming timing() { return SystemTiming{1000, 400, 300}; }

SystemOptions base_options() {
  SystemOptions o;
  o.n = 4;
  o.timing = timing();
  o.x = 0;
  return o;
}

HeavyTrafficOptions traffic(std::size_t ops) {
  HeavyTrafficOptions w;
  w.clients = 4;
  w.total_ops = ops;
  w.min_gap = 4 * timing().d;  // above Algorithm 1's d+eps response bound
  w.jitter = 137;
  w.batch = 256;  // several bursts even at test-sized op counts
  return w;
}

constexpr std::size_t kLogCap = 4'000'000;

/// One open-loop run through Algorithm 1; returns the serialized trace.
/// When `log` is set, the queue records its push/pop interleaving into it.
std::string run_heavy(const SystemOptions& options,
                      const HeavyTrafficOptions& w,
                      std::vector<std::int64_t>* log = nullptr) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options);
  if (log) system.sim().event_queue().set_log(log, kLogCap);
  HeavyTrafficWorkload workload(system.sim(), w);
  system.sim().start();
  workload.arm();
  EXPECT_TRUE(system.sim().run());
  EXPECT_EQ(workload.scheduled(), w.total_ops);
  EXPECT_EQ(system.sim().trace().ops.size(), w.total_ops);
  EXPECT_TRUE(system.sim().trace().complete());
  return trace_to_string(system.sim().trace());
}

/// Replay a recorded interleaving through a bare calendar queue and the
/// reference heap: every pop must agree on (time, priority, seq).
void expect_oracle_replay(const std::vector<std::int64_t>& log) {
  ASSERT_LT(log.size(), kLogCap) << "log truncated; raise kLogCap";
  EventQueue calendar;
  ReferenceHeap heap;
  std::size_t pops = 0;
  for (const std::int64_t entry : log) {
    if (entry == EventQueue::kPopSentinel) {
      ASSERT_FALSE(heap.empty());
      ASSERT_EQ(calendar.next_time(), heap.next_time());
      const SimEvent a = calendar.pop();
      const SimEvent b = heap.pop();
      ASSERT_EQ(a.time, b.time) << "pop " << pops;
      ASSERT_EQ(a.priority, b.priority) << "pop " << pops;
      ASSERT_EQ(a.seq, b.seq) << "pop " << pops;
      ++pops;
    } else {
      SimEvent ev;
      ev.kind = EventKind::kTimer;
      const auto priority = static_cast<EventPriority>(entry & 1);
      ASSERT_EQ(calendar.push_typed(entry >> 1, priority, ev),
                heap.push_typed(entry >> 1, priority, ev));
    }
  }
  EXPECT_GT(pops, 1000u) << "replay too short to mean anything";
  EXPECT_EQ(calendar.size(), heap.size());
}

TEST(HeavyTraffic, DeterministicAcrossRuns) {
  const std::string a = run_heavy(base_options(), traffic(1000));
  const std::string b = run_heavy(base_options(), traffic(1000));
  EXPECT_EQ(a, b);
}

TEST(HeavyTraffic, CleanRunPopsMatchTheReferenceHeap) {
  std::vector<std::int64_t> log;
  run_heavy(base_options(), traffic(2000), &log);
  expect_oracle_replay(log);
}

TEST(HeavyTraffic, FaultedHardenedRunPopsMatchTheReferenceHeap) {
  // Duplicates and delay spikes through the hardened replica (no drops:
  // open-loop arrivals cannot re-issue an operation a lost message would
  // strand, so the mix keeps completion guaranteed while still exercising
  // the fault layer).
  HardenedParams hardened;
  hardened.spike_margin = 300;
  SystemOptions o = base_options();
  FaultConfig faults;
  faults.dup_p = 0.08;
  faults.spike_p = 0.08;
  faults.spike_max = 300;
  faults.seed = 0xfa17u;
  o.faults = make_fault_policy(faults);
  o.hardened = hardened;

  // Worst-case hardened response stays under d_eff + eps; keep the
  // open-loop gap above it.
  HeavyTrafficOptions w = traffic(1000);
  w.min_gap = hardened.effective_d(timing()) + timing().eps + 1000;

  std::vector<std::int64_t> log;
  const std::string trace = run_heavy(o, w, &log);
  EXPECT_NE(trace.find("fault"), std::string::npos)
      << "fault mix injected nothing; the replay is vacuous";
  expect_oracle_replay(log);
}

TEST(HeavyTraffic, ChurnedRecoverableRunPopsMatchTheReferenceHeap) {
  // Crash/recover churn plus stall windows: stalled events are re-pushed
  // at the window's end, and recoveries re-arm timers mid-run.
  FaultConfig config;
  config.seed = 2026;
  config.churn.mean_uptime = 20'000;
  config.churn.mean_downtime = 4'000;
  config.churn.start = 2'000;
  config.churn.horizon = 40'000;
  config.stalls.push_back(StallWindow{2, 3'000, 5'500});
  config.stalls.push_back(StallWindow{1, 9'000, 9'800});

  SystemOptions o = base_options();
  RecoverableParams rp;
  rp.link.max_attempts = 4;
  o.recoverable = rp;
  o.faults = make_fault_policy(config);
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, o);
  std::vector<std::int64_t> log;
  system.sim().event_queue().set_log(&log, kLogCap);

  std::vector<ClientScript> scripts;
  Rng rng(config.seed);
  for (ProcessId p = 0; p < o.n; ++p) {
    Rng crng = rng.split(static_cast<std::uint64_t>(p) + 100);
    scripts.push_back({p, random_register_ops(crng, 30, OpMix{2, 2, 2}),
                       1000 + 500 * p, 200});
  }
  WorkloadDriver driver(system.sim(), std::move(scripts));
  driver.arm();
  make_churn_schedule(config, o.n).apply(system.sim());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());
  bool stalled = false, recovered = false;
  for (const FaultEvent& f : system.sim().trace().faults) {
    stalled |= f.kind == FaultKind::kProcessStalled;
    recovered |= f.kind == FaultKind::kProcessRecovered;
  }
  EXPECT_TRUE(stalled && recovered) << "schedule exercised neither path";
  expect_oracle_replay(log);
}

TEST(HeavyTraffic, ArmReservesTraceStorage) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, base_options());
  HeavyTrafficOptions w = traffic(5000);
  HeavyTrafficWorkload workload(system.sim(), w);
  system.sim().start();
  workload.arm();
  // The size hints must have landed: ops for the whole run, messages for
  // one broadcast per op (messages_per_op = 0 -> clients).
  EXPECT_GE(system.sim().trace().ops.capacity(), w.total_ops);
  EXPECT_GE(system.sim().trace().messages.capacity(),
            w.total_ops * static_cast<std::size_t>(w.clients));
  EXPECT_TRUE(system.sim().run());
}

TEST(HeavyTraffic, GapBelowResponseBoundThrows) {
  // Open-loop scheduling with a gap under the worst-case response violates
  // the model's one-pending-operation-per-process constraint; the
  // simulator rejects the overlapping invocation loudly.
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, base_options());
  HeavyTrafficOptions w = traffic(100);
  w.min_gap = 100;  // far below d + eps = 1300
  w.jitter = 0;
  HeavyTrafficWorkload workload(system.sim(), w);
  system.sim().start();
  workload.arm();
  EXPECT_THROW(system.sim().run(), std::logic_error);
}

TEST(HeavyTraffic, RejectsBadOptions) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, base_options());
  HeavyTrafficOptions w = traffic(10);
  w.clients = 0;
  EXPECT_THROW(HeavyTrafficWorkload(system.sim(), w), std::invalid_argument);
  w = traffic(10);
  w.min_gap = 0;
  EXPECT_THROW(HeavyTrafficWorkload(system.sim(), w), std::invalid_argument);
}

}  // namespace
}  // namespace linbound
