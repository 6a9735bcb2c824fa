// Unit-level behavior of Algorithm 1: exact response times per operation
// class (Chapter V.D), replica convergence, and the internal observations
// (C.1-C.5) the correctness proof rests on.
#include "core/replica_algorithm.h"

#include <gtest/gtest.h>

#include "core/system.h"
#include "types/queue_type.h"
#include "types/register_type.h"

namespace linbound {
namespace {

SystemTiming timing() { return SystemTiming{1000, 400, 100}; }

TEST(AlgorithmDelays, StandardMatchesPaperFormulas) {
  const AlgorithmDelays a = AlgorithmDelays::standard(timing(), 50);
  EXPECT_EQ(a.self_add, 600);     // d - u
  EXPECT_EQ(a.holdback, 500);     // u + eps
  EXPECT_EQ(a.mop_ack, 150);      // eps + X
  EXPECT_EQ(a.aop_respond, 1050); // d + eps - X
  EXPECT_EQ(a.aop_backdate, 50);  // X
}

TEST(AlgorithmDelays, XRangeEnforced) {
  EXPECT_THROW(AlgorithmDelays::standard(timing(), -1), std::invalid_argument);
  // d + eps - u = 700 is the inclusive maximum.
  EXPECT_NO_THROW(AlgorithmDelays::standard(timing(), 700));
  EXPECT_THROW(AlgorithmDelays::standard(timing(), 701), std::invalid_argument);
}

TEST(AlgorithmDelays, EagerVariantsShortenTheRightKnob) {
  const AlgorithmDelays oop = AlgorithmDelays::eager_oop(timing(), 0, 300);
  EXPECT_EQ(oop.self_add + oop.holdback, 300);
  const AlgorithmDelays mop = AlgorithmDelays::eager_mop(timing(), 0, 40);
  EXPECT_EQ(mop.mop_ack, 40);
  EXPECT_EQ(mop.self_add, 600);
  const AlgorithmDelays aop = AlgorithmDelays::eager_aop(timing(), 0, 200);
  EXPECT_EQ(aop.aop_respond, 200);
}

SystemOptions options_with_x(Tick x) {
  SystemOptions o;
  o.n = 4;
  o.timing = timing();
  o.x = x;
  return o;
}

TEST(ReplicaAlgorithm, PureMutatorRespondsExactlyAtEpsPlusX) {
  for (Tick x : {Tick{0}, Tick{50}, Tick{700}}) {
    auto model = std::make_shared<RegisterModel>();
    ReplicaSystem system(model, options_with_x(x));
    system.sim().invoke_at(1000, 0, reg::write(9));
    History h = system.run_to_completion();
    ASSERT_EQ(h.size(), 1u);
    EXPECT_EQ(h.ops()[0].response - h.ops()[0].invoke, timing().eps + x) << "X=" << x;
    EXPECT_EQ(h.ops()[0].ret, Value::unit());
  }
}

TEST(ReplicaAlgorithm, PureAccessorRespondsExactlyAtDPlusEpsMinusX) {
  for (Tick x : {Tick{0}, Tick{50}, Tick{700}}) {
    auto model = std::make_shared<RegisterModel>(3);
    ReplicaSystem system(model, options_with_x(x));
    system.sim().invoke_at(1000, 0, reg::read());
    History h = system.run_to_completion();
    ASSERT_EQ(h.size(), 1u);
    EXPECT_EQ(h.ops()[0].response - h.ops()[0].invoke,
              timing().d + timing().eps - x)
        << "X=" << x;
    EXPECT_EQ(h.ops()[0].ret, Value(3));
  }
}

TEST(ReplicaAlgorithm, LoneOopRespondsExactlyAtDPlusEps) {
  auto model = std::make_shared<RegisterModel>(5);
  ReplicaSystem system(model, options_with_x(0));
  system.sim().invoke_at(1000, 0, reg::rmw(8));
  History h = system.run_to_completion();
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h.ops()[0].response - h.ops()[0].invoke, timing().d + timing().eps);
  EXPECT_EQ(h.ops()[0].ret, Value(5));
}

TEST(ReplicaAlgorithm, AllCopiesConvergeToSameState) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options_with_x(0));
  system.sim().invoke_at(1000, 0, reg::write(1));
  system.sim().invoke_at(1001, 1, reg::write(2));
  system.sim().invoke_at(1002, 2, reg::rmw(3));
  system.run_to_completion();
  for (ProcessId p = 1; p < system.n(); ++p) {
    EXPECT_TRUE(system.replica(0).local_copy().equals(system.replica(p).local_copy()))
        << "replica " << p << ": " << system.replica(p).local_copy().to_string();
  }
}

TEST(ReplicaAlgorithm, MutatorsExecuteInTimestampOrderEverywhere) {
  // Two concurrent writes with distinct timestamps: every replica must end
  // with the later-stamped value (Lemma C.10).
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options_with_x(0));
  system.sim().invoke_at(1000, 0, reg::write(1));  // ts 1000
  system.sim().invoke_at(1001, 1, reg::write(2));  // ts 1001
  system.run_to_completion();
  for (ProcessId p = 0; p < system.n(); ++p) {
    auto copy = system.replica(p).local_copy().clone();
    EXPECT_EQ(copy->apply(reg::read()), Value(2));
  }
}

TEST(ReplicaAlgorithm, TimestampTieBrokenByProcessIdConsistently) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options_with_x(0));
  system.sim().invoke_at(1000, 0, reg::write(1));  // ts <1000,0>
  system.sim().invoke_at(1000, 1, reg::write(2));  // ts <1000,1>
  system.run_to_completion();
  for (ProcessId p = 0; p < system.n(); ++p) {
    auto copy = system.replica(p).local_copy().clone();
    EXPECT_EQ(copy->apply(reg::read()), Value(2));
  }
}

TEST(ReplicaAlgorithm, AccessorSeesMutatorThatPrecedesItInRealTime) {
  // Lemma C.14: a pure accessor invoked after a mutator's response reflects
  // the mutator.  Write acks at eps+X = 100; read starts right after.
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options_with_x(0));
  system.sim().invoke_at(1000, 0, reg::write(7));
  system.sim().invoke_at(1101, 1, reg::read());  // write acked at 1100
  History h = system.run_to_completion();
  for (const HistoryOp& op : h.ops()) {
    if (op.op.code == RegisterModel::kRead) {
      EXPECT_EQ(op.ret, Value(7));
    }
  }
  EXPECT_TRUE(check_linearizable(*model, h).ok);
}

TEST(ReplicaAlgorithm, OopLatencyNeverExceedsDPlusEps) {
  // Even with interleaved traffic, d+eps bounds every OOP (Lemma C.6).
  auto model = std::make_shared<QueueModel>();
  SystemOptions o = options_with_x(0);
  o.delays = std::make_shared<UniformDelayPolicy>(o.timing, 77);
  ReplicaSystem system(model, o);
  for (int i = 0; i < 4; ++i) {
    system.sim().invoke_at(1000 + i, i, i % 2 == 0 ? queue_ops::enqueue(i)
                                                   : queue_ops::dequeue());
  }
  History h = system.run_to_completion();
  for (const HistoryOp& op : h.ops()) {
    if (model->classify(op.op) == OpClass::kOther) {
      EXPECT_LE(op.response - op.invoke, o.timing.d + o.timing.eps);
    }
  }
  EXPECT_TRUE(check_linearizable(*model, h).ok);
}

TEST(AlgorithmDelays, PerfectlySynchronizedClocksStillAckPositively) {
  // eps = 0 would make eps+X = 0 at X = 0, letting one process stamp two
  // operations with the same timestamp; the implementation guards with a
  // one-tick minimum.
  const SystemTiming t{1000, 400, 0};
  EXPECT_EQ(AlgorithmDelays::standard(t, 0).mop_ack, 1);
  EXPECT_EQ(AlgorithmDelays::standard(t, 100).mop_ack, 101);
}

TEST(ReplicaAlgorithm, BackToBackWritesWithZeroSkewStayLinearizable) {
  // Regression for the eps = 0 degenerate case: chained same-process
  // writes at zero think time must get distinct timestamps everywhere.
  const SystemTiming t{1000, 400, 0};
  auto model = std::make_shared<RegisterModel>();
  SystemOptions o;
  o.n = 3;
  o.timing = t;
  ReplicaSystem system(model, o);
  system.sim().invoke_at(1000, 0, reg::write(1));  // acks at 1001 (eps=0 guard)
  system.sim().invoke_at(1002, 0, reg::write(2));  // right after the ack
  system.sim().invoke_at(1000, 1, reg::write(3));
  system.sim().invoke_at(8000, 2, reg::read());
  History h = system.run_to_completion();
  EXPECT_TRUE(check_linearizable(*model, h).ok) << h.to_string(*model);
  for (ProcessId p = 1; p < system.n(); ++p) {
    EXPECT_TRUE(system.replica(0).local_copy().equals(system.replica(p).local_copy()));
  }
}

TEST(ReplicaAlgorithm, SameTickArrivalIsIncludedByAccessor) {
  // Regression for the Lemma C.9 boundary: a mutator whose broadcast lands
  // at the exact tick of an accessor's respond timer (arrival = invocation
  // + d + eps - X with maximal skew and delay) must still be executed
  // before the accessor -- deliveries outrank simultaneous timers.
  //
  // p2 (clock +eps) peeks at t=1000 (ts <1300,2>, responds 2300).
  // p1 (clock +eps) enqueues 6 at t=1000 (ts <1300,1>), fast path to p2.
  // p0 enqueues 2 at t=1300 (ts <1300,0>), slow path: arrives p2 at 2300.
  // The peek must apply enqueue(2) before enqueue(6); otherwise p2's copy
  // diverges ([6,2] instead of [2,6]) and later dequeues disagree.
  const SystemTiming t{1000, 400, 300};
  auto model = std::make_shared<QueueModel>();
  SystemOptions o;
  o.n = 3;
  o.timing = t;
  o.clock_offsets = {0, 300, 300};
  auto matrix = std::make_shared<MatrixDelayPolicy>(3, t.d);
  matrix->set(1, 2, t.d - t.u);
  o.delays = matrix;
  ReplicaSystem system(model, o);
  system.sim().invoke_at(1000, 2, queue_ops::peek());
  system.sim().invoke_at(1000, 1, queue_ops::enqueue(6));
  system.sim().invoke_at(1300, 0, queue_ops::enqueue(2));
  system.sim().invoke_at(9000, 0, queue_ops::dequeue());
  system.sim().invoke_at(13000, 1, queue_ops::dequeue());
  History h = system.run_to_completion();
  EXPECT_TRUE(check_linearizable(*model, h).ok) << h.to_string(*model);
  EXPECT_EQ(h.ops()[0].ret, Value(2));  // peek saw the same-tick arrival
  EXPECT_EQ(h.ops()[3].ret, Value(2));
  EXPECT_EQ(h.ops()[4].ret, Value(6));
  for (ProcessId p = 1; p < system.n(); ++p) {
    EXPECT_TRUE(system.replica(0).local_copy().equals(system.replica(p).local_copy()));
  }
}

TEST(ReplicaAlgorithm, QueueEndToEnd) {
  auto model = std::make_shared<QueueModel>();
  ReplicaSystem system(model, options_with_x(0));
  system.sim().invoke_at(1000, 0, queue_ops::enqueue(11));
  system.sim().invoke_at(1200, 1, queue_ops::enqueue(22));
  system.sim().invoke_at(5000, 2, queue_ops::dequeue());
  system.sim().invoke_at(9000, 3, queue_ops::dequeue());
  History h = system.run_to_completion();
  EXPECT_TRUE(check_linearizable(*model, h).ok) << h.to_string(*model);
  // Non-overlapping enqueues: FIFO means the dequeues see 11 then 22.
  EXPECT_EQ(h.ops()[2].ret, Value(11));
  EXPECT_EQ(h.ops()[3].ret, Value(22));
}

TEST(ReplicaAlgorithm, WorksWithTwoProcesses) {
  auto model = std::make_shared<RegisterModel>();
  SystemOptions o = options_with_x(0);
  o.n = 2;
  ReplicaSystem system(model, o);
  system.sim().invoke_at(1000, 0, reg::write(4));
  system.sim().invoke_at(2000, 1, reg::read());
  History h = system.run_to_completion();
  EXPECT_TRUE(check_linearizable(*model, h).ok);
  EXPECT_EQ(h.ops()[1].ret, Value(4));
}

}  // namespace
}  // namespace linbound
