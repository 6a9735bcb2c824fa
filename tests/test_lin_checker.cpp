#include "checker/lin_checker.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "types/queue_type.h"
#include "types/register_type.h"
#include "types/stack_type.h"

namespace linbound {
namespace {

TEST(LinChecker, EmptyHistoryIsLinearizable) {
  RegisterModel model;
  EXPECT_TRUE(check_linearizable(model, History{}).ok);
}

TEST(LinChecker, SequentialLegalHistory) {
  RegisterModel model;
  History h({{0, reg::write(1), Value::unit(), 0, 10},
             {0, reg::read(), Value(1), 20, 30}});
  auto result = check_linearizable(model, h);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.witness, (std::vector<std::size_t>{0, 1}));
}

TEST(LinChecker, StaleReadAfterWriteIsNotLinearizable) {
  // The Fig. 1(a) situation: read(0) strictly after write(0);write(1).
  RegisterModel model;
  History h({{0, reg::write(0), Value::unit(), 0, 10},
             {0, reg::write(1), Value::unit(), 20, 30},
             {1, reg::read(), Value(0), 40, 50}});
  auto result = check_linearizable(model, h);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.explanation.empty());
}

TEST(LinChecker, OverlappingWriteMakesStaleReadLegal) {
  // Fig. 1(b): lengthen write(1) so it overlaps the read.
  RegisterModel model;
  History h({{0, reg::write(0), Value::unit(), 0, 10},
             {0, reg::write(1), Value::unit(), 20, 60},
             {1, reg::read(), Value(0), 40, 50}});
  EXPECT_TRUE(check_linearizable(model, h).ok);
}

TEST(LinChecker, ConcurrentOpsMayLinearizeEitherWay) {
  RegisterModel model;
  History h({{0, reg::write(5), Value::unit(), 0, 100},
             {1, reg::read(), Value(5), 10, 90}});
  EXPECT_TRUE(check_linearizable(model, h).ok);
  History h2({{0, reg::write(5), Value::unit(), 0, 100},
              {1, reg::read(), Value(0), 10, 90}});
  EXPECT_TRUE(check_linearizable(model, h2).ok);
}

TEST(LinChecker, EqualTimesCountAsConcurrent) {
  // response == invocation at the same tick: not "before" (strictness of
  // the real-time order), so both orders are allowed.
  RegisterModel model;
  History h({{0, reg::write(1), Value::unit(), 0, 10},
             {1, reg::read(), Value(0), 10, 20}});
  EXPECT_TRUE(check_linearizable(model, h).ok);
}

TEST(LinChecker, TwoRmwBothReturningInitialIsIllegal) {
  // The core of Theorem C.1's contradiction: whatever the overlap, two
  // fetch-and-stores cannot both see the initial value.
  RegisterModel model;
  History h({{0, reg::rmw(1), Value(0), 0, 100},
             {1, reg::rmw(2), Value(0), 0, 100}});
  EXPECT_FALSE(check_linearizable(model, h).ok);
}

TEST(LinChecker, QueueFifoViolationDetected) {
  QueueModel model;
  History h({{0, queue_ops::enqueue(1), Value::unit(), 0, 10},
             {0, queue_ops::enqueue(2), Value::unit(), 20, 30},
             {1, queue_ops::dequeue(), Value(2), 40, 50}});
  EXPECT_FALSE(check_linearizable(model, h).ok);
}

TEST(LinChecker, QueueConcurrentEnqueuesEitherOrder) {
  QueueModel model;
  History h({{0, queue_ops::enqueue(1), Value::unit(), 0, 100},
             {1, queue_ops::enqueue(2), Value::unit(), 0, 100},
             {2, queue_ops::dequeue(), Value(2), 200, 300}});
  EXPECT_TRUE(check_linearizable(model, h).ok);
}

TEST(LinChecker, WitnessIsALegalRealTimeRespectingPermutation) {
  StackModel model;
  History h({{0, stack_ops::push(1), Value::unit(), 0, 10},
             {1, stack_ops::push(2), Value::unit(), 5, 20},
             {0, stack_ops::pop(), Value(2), 30, 40},
             {1, stack_ops::pop(), Value(1), 50, 60}});
  auto result = check_linearizable(model, h);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.witness.size(), 4u);
  // Replay the witness to confirm legality.
  auto state = model.initial_state();
  for (std::size_t i : result.witness) {
    EXPECT_EQ(state->apply(h.ops()[i].op), h.ops()[i].ret);
  }
}

TEST(LinChecker, SequentialConsistencyIgnoresRealTime) {
  // Stale read across processes: not linearizable but sequentially
  // consistent (the Attiya-Welch separation the paper builds on).
  RegisterModel model;
  History h({{0, reg::write(1), Value::unit(), 0, 10},
             {1, reg::read(), Value(0), 40, 50}});
  EXPECT_FALSE(check_linearizable(model, h).ok);
  EXPECT_TRUE(check_sequentially_consistent(model, h).ok);
}

TEST(LinChecker, SequentialConsistencyStillNeedsProgramOrder) {
  RegisterModel model;
  History h({{0, reg::write(1), Value::unit(), 0, 10},
             {0, reg::read(), Value(0), 20, 30}});
  EXPECT_FALSE(check_sequentially_consistent(model, h).ok);
}

TEST(LinChecker, MemoizationHandlesWideHistories) {
  // 4 processes x 12 ops each with heavy overlap; the frontier/state memo
  // must keep this tractable.
  RegisterModel model;
  std::vector<HistoryOp> ops;
  for (int p = 0; p < 4; ++p) {
    for (int k = 0; k < 12; ++k) {
      const Tick inv = k * 10 + p;
      // Increments commute, so every interleaving is legal.
      ops.push_back({p, reg::increment(1), Value::unit(), inv, inv + 8});
    }
  }
  auto result = check_linearizable(model, History(std::move(ops)));
  EXPECT_TRUE(result.ok);
  EXPECT_LT(result.states_explored, 100000u);
}

TEST(LinChecker, MemoHitsAreCounted) {
  // The wide commuting history above revisits many (frontier, state)
  // configurations; the memo counter must see them.
  RegisterModel model;
  std::vector<HistoryOp> ops;
  for (int p = 0; p < 3; ++p) {
    for (int k = 0; k < 6; ++k) {
      const Tick inv = k * 10 + p;
      ops.push_back({p, reg::increment(1), Value::unit(), inv, inv + 8});
    }
  }
  // A final impossible read forces the search to exhaust (and re-reach)
  // every interleaving instead of stopping at the first witness.
  ops.push_back({0, reg::read(), Value(-1), 1000, 1010});
  auto result = check_linearizable(model, History(std::move(ops)));
  EXPECT_FALSE(result.ok);
  EXPECT_GT(result.memo_hits, 0u);
  EXPECT_GT(result.memo_hit_rate(), 0.0);
  EXPECT_LE(result.memo_hit_rate(), 1.0);
}

TEST(LinChecker, EmptyHistoryEarlyExits) {
  RegisterModel model;
  auto result = check_linearizable(model, History{});
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.early_exit);
  EXPECT_EQ(result.states_explored, 0u);
}

TEST(LinChecker, SingleProcessHistoryEarlyExits) {
  // One process: program order is the only real-time-respecting
  // permutation, so the checker replays instead of searching.
  RegisterModel model;
  History ok_h({{2, reg::write(3), Value::unit(), 0, 10},
                {2, reg::rmw(5), Value(3), 20, 30},
                {2, reg::read(), Value(5), 40, 50}});
  auto ok_result = check_linearizable(model, ok_h);
  EXPECT_TRUE(ok_result.ok);
  EXPECT_TRUE(ok_result.early_exit);
  EXPECT_EQ(ok_result.witness, (std::vector<std::size_t>{0, 1, 2}));

  History bad_h({{2, reg::write(3), Value::unit(), 0, 10},
                 {2, reg::read(), Value(4), 20, 30}});
  auto bad_result = check_linearizable(model, bad_h);
  EXPECT_FALSE(bad_result.ok);
  EXPECT_TRUE(bad_result.early_exit);
  EXPECT_FALSE(bad_result.explanation.empty());
}

TEST(LinChecker, MultiProcessSearchIsNotEarlyExit) {
  RegisterModel model;
  History h({{0, reg::write(5), Value::unit(), 0, 100},
             {1, reg::read(), Value(5), 10, 90}});
  auto result = check_linearizable(model, h);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.early_exit);
  EXPECT_GT(result.states_explored, 0u);
}

TEST(LinChecker, DeepOverlapChainOnDefaultThreadStack) {
  // 300k rmw operations alternating between two processes, each overlapping
  // the next: no quiescent cut anywhere, so the search holds one open node
  // per linearized operation.  A depth-proportional recursive search
  // overflows a default 8 MB thread stack here; the explicit-stack search
  // must not.  Each rmw returns its predecessor's value, so the only
  // linearization is index order and a wrong first choice fails at once.
  constexpr int kOps = 300'000;
  std::vector<HistoryOp> ops;
  ops.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    const Tick invoke = static_cast<Tick>(i) * 10;
    ops.push_back({static_cast<ProcessId>(i % 2), reg::rmw(i + 1), Value(i),
                   invoke, invoke + 15});
  }
  const History h(std::move(ops));
  RegisterModel model;
  CheckResult lin;
  CheckResult sc;
  std::thread worker([&] {
    lin = check_linearizable(model, h);
    sc = check_sequentially_consistent(model, h);
  });
  worker.join();
  std::vector<std::size_t> in_order(kOps);
  for (std::size_t i = 0; i < in_order.size(); ++i) in_order[i] = i;
  for (const CheckResult* r : {&lin, &sc}) {
    EXPECT_TRUE(r->ok);
    EXPECT_FALSE(r->early_exit);
    EXPECT_EQ(r->states_explored, static_cast<std::size_t>(kOps));
    EXPECT_TRUE(r->witness == in_order);
  }
}

}  // namespace
}  // namespace linbound
