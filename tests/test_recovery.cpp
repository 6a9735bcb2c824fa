// Crash-recovery (crash-recovery model on top of Chapter VII's crashes):
// Simulator::recover_at semantics, the rejoin/state-transfer protocol of
// core/recoverable_replica.h, the driver's cut-and-reissue behavior, and
// the zero-churn byte-identity guarantee (a recoverable system that never
// crashes produces exactly the hardened system's trace).
#include <gtest/gtest.h>

#include <stdexcept>

#include "checker/brute_checker.h"
#include "checker/lin_checker.h"
#include "core/driver.h"
#include "core/system.h"
#include "sim/trace_io.h"
#include "types/register_type.h"

namespace linbound {
namespace {

SystemOptions plain_options() {
  SystemOptions o;
  o.n = 4;
  o.timing = SystemTiming{1000, 400, 100};
  return o;
}

// A short attempt budget keeps d_eff -- and with it every rejoin wait and
// the run length -- small: d_eff = d + first_timeout = 1000 + 2001.
RecoverableParams quick_recovery() {
  RecoverableParams p;
  p.link.max_attempts = 2;
  return p;
}

SystemOptions recoverable_options() {
  SystemOptions o = plain_options();
  o.recoverable = quick_recovery();
  return o;
}

RecoverableReplicaProcess& recoverable(ReplicaSystem& system, ProcessId pid) {
  return dynamic_cast<RecoverableReplicaProcess&>(system.replica(pid));
}

TEST(RecoverAt, RejectsPastTimes) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, plain_options());
  EXPECT_THROW(system.sim().recover_at(-1, 0), std::invalid_argument);
  EXPECT_THROW(system.sim().crash_at(-5, 0), std::invalid_argument);
}

TEST(RecoverAt, RejectsUnknownProcesses) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, plain_options());
  EXPECT_THROW(system.sim().recover_at(100, 99), std::out_of_range);
  EXPECT_THROW(system.sim().crash_at(100, -1), std::out_of_range);
}

TEST(RecoverAt, RecoveringANeverCrashedProcessIsAScheduleBug) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, plain_options());
  system.sim().recover_at(100, 1);  // 1 is up the whole time
  system.sim().start();
  EXPECT_THROW(system.sim().run(), std::logic_error);
}

TEST(RecoverAt, DoubleCrashIsAScheduleBug) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, plain_options());
  system.sim().crash_at(100, 1);
  system.sim().crash_at(200, 1);  // still down at 200
  system.sim().start();
  EXPECT_THROW(system.sim().run(), std::logic_error);
}

TEST(RecoverAt, CrashRecoverCyclesBumpTheIncarnation) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, recoverable_options());
  system.sim().crash_at(1000, 2);
  system.sim().recover_at(2000, 2);
  system.sim().crash_at(20000, 2);
  system.sim().recover_at(21000, 2);
  system.sim().start();
  EXPECT_TRUE(system.sim().run());

  EXPECT_EQ(system.sim().incarnation(2), 2);
  EXPECT_FALSE(system.sim().crashed(2));
  EXPECT_EQ(recoverable(system, 2).recoveries(), 2);

  // Both cycles are recorded as fault events, in order.
  int crashes = 0, recoveries = 0;
  for (const FaultEvent& f : system.sim().trace().faults) {
    if (f.kind == FaultKind::kProcessCrashed) ++crashes;
    if (f.kind == FaultKind::kProcessRecovered) ++recoveries;
  }
  EXPECT_EQ(crashes, 2);
  EXPECT_EQ(recoveries, 2);
}

TEST(RecoverAt, TimersArmedBeforeTheCrashNeverFire) {
  // Plain (non-recoverable) replicas: p1's write broadcast goes out at 1000
  // and its eps+X ack timer would fire at 1100.  Crashing at 1050 and
  // recovering at 3000 must NOT resurrect that timer -- the restarted
  // process has lost its volatile state -- so the write stays pending.
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, plain_options());
  system.sim().invoke_at(1000, 1, reg::write(7));
  system.sim().crash_at(1050, 1);
  system.sim().recover_at(3000, 1);
  system.sim().invoke_at(8000, 0, reg::read());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());

  const Trace& trace = system.sim().trace();
  EXPECT_EQ(trace.ops[0].response_time, kNoTime);  // ack timer died
  auto [history, pending] = history_with_pending(trace);
  ASSERT_EQ(pending.size(), 1u);
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history.ops()[0].ret, Value(7));  // survivors executed it
  EXPECT_TRUE(check_linearizable_with_pending(*model, history, pending).ok);
}

TEST(Recovery, RejoinerAdoptsASnapshotAndServesAgain) {
  // p0's writes complete while p1 is down; after recover_at(9000) p1 must
  // rejoin (JoinRequest -> snapshot -> catch-up window) and then answer a
  // read -- invoked right at the recovery instant, so it is deferred until
  // the catch-up window closes -- with the latest value.
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, recoverable_options());
  system.sim().invoke_at(1000, 0, reg::write(5));
  system.sim().crash_at(5000, 1);
  system.sim().invoke_at(6000, 0, reg::write(9));
  system.sim().recover_at(9000, 1);
  system.sim().invoke_at(9000, 1, reg::read());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());

  const Trace& trace = system.sim().trace();
  ASSERT_EQ(trace.ops.size(), 3u);
  const OperationRecord& read = trace.ops[2];
  ASSERT_TRUE(read.completed());
  EXPECT_EQ(read.ret, Value(9));

  RecoverableReplicaProcess& p1 = recoverable(system, 1);
  EXPECT_TRUE(p1.joined());
  EXPECT_TRUE(p1.serving());
  EXPECT_EQ(p1.recoveries(), 1);
  EXPECT_NE(p1.last_rejoin_complete(), kNoTime);

  // The deferred read is answered only after the catch-up window: never
  // before recovery + catchup (adoption itself takes a join round trip).
  const RecoverableParams rp = quick_recovery();
  EXPECT_GE(read.response_time, 9000 + rp.catchup_for(SystemTiming{1000, 400, 100}));

  auto [history, pending] = history_with_pending(trace);
  EXPECT_TRUE(pending.empty());
  EXPECT_TRUE(check_linearizable(*model, history).ok)
      << history.to_string(*model);

  // Someone served the rejoiner a snapshot.
  std::int64_t served = 0;
  for (ProcessId p = 0; p < 4; ++p) served += recoverable(system, p).snapshots_served();
  EXPECT_GE(served, 1);
}

TEST(Recovery, DriverReissuesTheCutOperation) {
  // p1's first write is cut by the crash at 1050 (after the broadcast, one
  // tick before its ack).  The driver re-issues it when p1 recovers; the
  // cut attempt stays pending in the trace and the pending-aware checker
  // accepts the shape.  The script then finishes normally.
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, recoverable_options());
  std::vector<ClientScript> scripts = {
      {1, {reg::write(1), reg::write(2), reg::read()}, 1000, 0},
      {0, {reg::write(7), reg::read()}, 1500, 0},
  };
  WorkloadDriver driver(system.sim(), scripts);
  driver.arm();
  system.sim().crash_at(1050, 1);
  system.sim().recover_at(6000, 1);
  system.sim().start();
  EXPECT_TRUE(system.sim().run());

  EXPECT_EQ(driver.reissued(), 1);

  auto [history, pending] = history_with_pending(system.sim().trace());
  EXPECT_EQ(history.size(), 5u);  // every scripted operation answered
  ASSERT_EQ(pending.size(), 1u);  // the cut attempt
  EXPECT_EQ(pending[0].proc, 1);
  const CheckResult check =
      check_linearizable_with_pending(*model, history, pending);
  EXPECT_TRUE(check.ok) << check.explanation << "\n"
                        << history.to_string(*model);
  // Cross-validate the pending-aware search on this small history.
  EXPECT_TRUE(brute_force_linearizable_with_pending(*model, history, pending));
}

TEST(Recovery, ZeroChurnRunsAreByteIdenticalToTheHardenedReplica) {
  // The recovery layer must be invisible until a recovery happens: same
  // model, same schedule, no crashes -- the recoverable system's serialized
  // trace equals the hardened system's, byte for byte.
  auto model = std::make_shared<RegisterModel>();
  HardenedParams link;
  link.max_attempts = 2;

  SystemOptions hardened = plain_options();
  hardened.hardened = link;

  SystemOptions recov = plain_options();
  recov.recoverable = RecoverableParams{link};

  std::string serialized[2];
  int i = 0;
  for (SystemOptions* o : {&hardened, &recov}) {
    ReplicaSystem system(model, *o);
    system.sim().invoke_at(1000, 0, reg::write(3));
    system.sim().invoke_at(1200, 1, reg::rmw(4));
    system.sim().invoke_at(2000, 2, reg::read());
    system.sim().invoke_at(5000, 3, reg::read());
    EXPECT_TRUE(check_linearizable(*model, system.run_to_completion()).ok);
    serialized[i++] = trace_to_string(system.sim().trace());
  }
  EXPECT_EQ(serialized[0], serialized[1]);
  // And a clean run serializes with no fault lines at all.
  EXPECT_EQ(serialized[1].find("fault "), std::string::npos);
}

TEST(Recovery, SurvivorsKeepTheirClassBoundsAcrossARejoin) {
  // The rejoin protocol costs survivors one snapshot message, never a wait:
  // a survivor mutator acked eps+X after invocation, churn or not.
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, recoverable_options());
  const AlgorithmDelays& delays = system.algorithm_delays();
  system.sim().crash_at(2000, 3);
  system.sim().recover_at(5000, 3);
  system.sim().invoke_at(6000, 0, reg::write(1));  // mid-rejoin
  system.sim().start();
  EXPECT_TRUE(system.sim().run());

  const OperationRecord& write = system.sim().trace().ops[0];
  ASSERT_TRUE(write.completed());
  EXPECT_EQ(write.latency(), delays.mop_ack);
}

}  // namespace
}  // namespace linbound
