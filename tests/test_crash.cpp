// Crash failures (Chapter VII future work; the paper's base model is
// failure-free).  Algorithm 1's waits are all timer-driven -- no acks, no
// quorums -- so survivors keep answering and stay linearizable; the
// centralized and TOB baselines stall when their special process dies.
//
// Crash granularity: a crash takes effect at an instant between events, so
// a broadcast (sent in one step, per the model's zero-time transitions) is
// either fully sent or not at all.
#include <gtest/gtest.h>

#include "checker/brute_checker.h"
#include "checker/lin_checker.h"
#include "core/system.h"
#include "types/queue_type.h"
#include "types/register_type.h"

namespace linbound {
namespace {

SystemOptions options() {
  SystemOptions o;
  o.n = 4;
  o.timing = SystemTiming{1000, 400, 100};
  return o;
}

TEST(Crash, SurvivorsKeepCompletingUnderAlgorithmOne) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options());
  system.sim().invoke_at(1000, 1, reg::write(7));
  system.sim().crash_at(5000, 1);
  // Invocations on survivors, well after the crash:
  system.sim().invoke_at(6000, 0, reg::read());
  system.sim().invoke_at(6000, 2, reg::rmw(9));
  system.sim().invoke_at(9000, 3, reg::read());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());

  auto [history, pending] = history_with_pending(system.sim().trace());
  EXPECT_TRUE(pending.empty());  // the write completed before the crash
  EXPECT_EQ(history.size(), 4u);
  EXPECT_TRUE(check_linearizable(*model, history).ok)
      << history.to_string(*model);
}

TEST(Crash, PendingWriteOfCrashedProcessMayHaveTakenEffect) {
  // p1 invokes a write and crashes after its broadcast is out but before
  // the eps+X ack: survivors observe the value.  The plain checker has no
  // completed write to explain the read; the pending-aware checker
  // linearizes the crashed invocation.
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options());
  system.sim().invoke_at(1000, 1, reg::write(7));  // would ack at 1100
  system.sim().crash_at(1050, 1);                  // after broadcast, before ack
  system.sim().invoke_at(8000, 0, reg::read());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());

  auto [history, pending] = history_with_pending(system.sim().trace());
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].proc, 1);
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history.ops()[0].ret, Value(7));  // the survivor saw the write

  EXPECT_FALSE(check_linearizable(*model, history).ok);
  EXPECT_TRUE(check_linearizable_with_pending(*model, history, pending).ok);
}

TEST(Crash, PendingOpMayAlsoHaveNoEffect) {
  // Crash at the invocation instant: the broadcast happens at invoke time,
  // so crashing strictly before it suppresses everything -- the read sees
  // the initial value and the pending op is simply omitted.
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options());
  system.sim().crash_at(999, 1);
  system.sim().invoke_at(1000, 1, reg::write(7));  // lost: process is dead
  system.sim().invoke_at(8000, 0, reg::read());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());

  auto [history, pending] = history_with_pending(system.sim().trace());
  EXPECT_TRUE(pending.empty());  // never dispatched: dropped entirely
  EXPECT_EQ(history.ops()[0].ret, Value(0));
  EXPECT_TRUE(check_linearizable(*model, history).ok);
}

TEST(Crash, CentralizedStallsWhenCoordinatorDies) {
  auto model = std::make_shared<RegisterModel>();
  CentralizedSystem system(model, options());
  system.sim().crash_at(500, 0);  // the coordinator
  system.sim().invoke_at(1000, 1, reg::write(1));
  system.sim().invoke_at(1000, 2, reg::read());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());
  auto [history, pending] = history_with_pending(system.sim().trace());
  EXPECT_EQ(history.size(), 0u);  // nothing ever completes
  EXPECT_EQ(pending.size(), 2u);
}

TEST(Crash, TobStallsWhenSequencerDies) {
  auto model = std::make_shared<QueueModel>();
  TobSystem system(model, options());
  system.sim().crash_at(500, 0);  // the sequencer
  system.sim().invoke_at(1000, 1, queue_ops::enqueue(1));
  system.sim().start();
  EXPECT_TRUE(system.sim().run());
  auto [history, pending] = history_with_pending(system.sim().trace());
  EXPECT_TRUE(history.empty());
  EXPECT_EQ(pending.size(), 1u);
}

TEST(Crash, CrashedProcessStateFreezes) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options());
  system.sim().invoke_at(1000, 0, reg::write(5));
  system.sim().crash_at(1200, 3);  // before any broadcast arrives (d-u=600)
  system.sim().invoke_at(8000, 1, reg::read());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());
  // Survivors executed the write; the crashed replica never did.
  auto frozen = system.replica(3).local_copy().clone();
  EXPECT_EQ(frozen->apply(reg::read()), Value(0));
  auto live = system.replica(1).local_copy().clone();
  EXPECT_EQ(live->apply(reg::read()), Value(5));
}

// ---- pending-aware checker unit tests --------------------------------------

TEST(PendingChecker, IncludesPendingWhenNeeded) {
  RegisterModel model;
  History h({{0, reg::read(), Value(3), 100, 200}});
  std::vector<PendingInvocation> pending{{1, reg::write(3), 50}};
  EXPECT_FALSE(check_linearizable(model, h).ok);
  EXPECT_TRUE(check_linearizable_with_pending(model, h, pending).ok);
}

TEST(PendingChecker, OmitsPendingWhenNeeded) {
  RegisterModel model;
  History h({{0, reg::read(), Value(0), 100, 200}});
  std::vector<PendingInvocation> pending{{1, reg::write(9), 50}};
  EXPECT_TRUE(check_linearizable_with_pending(model, h, pending).ok);
}

TEST(PendingChecker, PendingStillRespectsRealTimeOrder) {
  // The pending op was invoked after the read responded, so it cannot be
  // linearized before the read; the read's value stays inexplicable.
  RegisterModel model;
  History h({{0, reg::read(), Value(3), 100, 200}});
  std::vector<PendingInvocation> pending{{1, reg::write(3), 300}};
  EXPECT_FALSE(check_linearizable_with_pending(model, h, pending).ok);
}

TEST(PendingChecker, MultiplePendingSubsets) {
  // Two pending writes; the reads force exactly one of them in.
  RegisterModel model;
  History h({{0, reg::read(), Value(1), 100, 200},
             {0, reg::read(), Value(1), 300, 400}});
  std::vector<PendingInvocation> pending{{1, reg::write(1), 10},
                                         {2, reg::write(2), 10}};
  EXPECT_TRUE(check_linearizable_with_pending(model, h, pending).ok);
  // But both reads seeing different pending values in the wrong order is
  // impossible once real time pins them:
  History h2({{0, reg::read(), Value(1), 100, 200},
              {0, reg::read(), Value(2), 300, 400},
              {0, reg::read(), Value(1), 500, 600}});
  EXPECT_FALSE(check_linearizable_with_pending(model, h2, pending).ok);
}

TEST(PendingChecker, EmptyPendingEqualsPlainCheck) {
  RegisterModel model;
  History h({{0, reg::write(1), Value::unit(), 0, 10},
             {1, reg::read(), Value(1), 20, 30}});
  EXPECT_EQ(check_linearizable(model, h).ok,
            check_linearizable_with_pending(model, h, {}).ok);
}

// ---- cross-validation against the brute-force pending checker --------------

TEST(PendingChecker, BruteForceAgreesOnSyntheticCases) {
  RegisterModel model;
  struct Case {
    History h;
    std::vector<PendingInvocation> pending;
  };
  const Case cases[] = {
      // Pending write must be included to explain the read.
      {History({{0, reg::read(), Value(3), 100, 200}}),
       {{1, reg::write(3), 50}}},
      // Pending write must be omitted.
      {History({{0, reg::read(), Value(0), 100, 200}}),
       {{1, reg::write(9), 50}}},
      // Pending invoked after the response: real time forbids inclusion.
      {History({{0, reg::read(), Value(3), 100, 200}}),
       {{1, reg::write(3), 300}}},
      // Program order: a process's pending write, invoked at the tick its
      // own read responded, cannot explain that read.
      {History({{0, reg::read(), Value(3), 100, 200}}),
       {{0, reg::write(3), 200}}},
      // Two pending, exactly one consistent subset.
      {History({{0, reg::read(), Value(1), 100, 200},
                {0, reg::read(), Value(1), 300, 400}}),
       {{1, reg::write(1), 10}, {2, reg::write(2), 10}}},
      // Impossible ordering regardless of subsets.
      {History({{0, reg::read(), Value(1), 100, 200},
                {0, reg::read(), Value(2), 300, 400},
                {0, reg::read(), Value(1), 500, 600}}),
       {{1, reg::write(1), 10}, {2, reg::write(2), 10}}},
      // No pending at all.
      {History({{0, reg::write(1), Value::unit(), 0, 10},
                {1, reg::read(), Value(1), 20, 30}}),
       {}},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const bool search =
        check_linearizable_with_pending(model, cases[i].h, cases[i].pending).ok;
    const bool brute =
        brute_force_linearizable_with_pending(model, cases[i].h, cases[i].pending);
    EXPECT_EQ(search, brute) << "case " << i;
  }
}

TEST(PendingChecker, BruteForceAgreesOnSimulatedCrashHistory) {
  // The crash-with-pending run of PendingWriteOfCrashedProcessMayHaveTakenEffect,
  // judged by both checkers: the pending-aware verdict flips from the plain
  // checker's NO to YES, and the brute-force enumeration agrees on both.
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options());
  system.sim().invoke_at(1000, 1, reg::write(7));
  system.sim().crash_at(1050, 1);  // after broadcast, before ack
  system.sim().invoke_at(8000, 0, reg::read());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());

  auto [history, pending] = history_with_pending(system.sim().trace());
  ASSERT_EQ(pending.size(), 1u);

  EXPECT_FALSE(check_linearizable(*model, history).ok);
  EXPECT_FALSE(brute_force_linearizable(*model, history));

  EXPECT_TRUE(check_linearizable_with_pending(*model, history, pending).ok);
  EXPECT_TRUE(brute_force_linearizable_with_pending(*model, history, pending));
}

}  // namespace
}  // namespace linbound
