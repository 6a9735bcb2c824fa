// Parameterized integration sweeps: Algorithm 1 over every data type,
// across the adversary grid, stays linearizable and inside its latency
// bounds; the centralized baseline stays within 2d.
#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.h"
#include "spec/composite.h"
#include "types/array_type.h"
#include "types/queue_type.h"
#include "types/register_type.h"
#include "types/set_type.h"
#include "types/stack_type.h"
#include "types/tree_type.h"

namespace linbound {
namespace {

struct SweepCase {
  const char* name;
  std::shared_ptr<ObjectModel> model;
  WorkloadFactory workload;
};

SweepCase make_case(const char* name) {
  const OpMix mix{2, 2, 1};
  const int ops = 12;
  if (std::string(name) == "register") {
    return {name, std::make_shared<RegisterModel>(),
            [=](ProcessId, Rng& rng) { return random_register_ops(rng, ops, mix); }};
  }
  if (std::string(name) == "queue") {
    return {name, std::make_shared<QueueModel>(),
            [=](ProcessId, Rng& rng) { return random_queue_ops(rng, ops, mix); }};
  }
  if (std::string(name) == "stack") {
    return {name, std::make_shared<StackModel>(),
            [=](ProcessId, Rng& rng) { return random_stack_ops(rng, ops, mix); }};
  }
  if (std::string(name) == "set") {
    return {name, std::make_shared<SetModel>(),
            [=](ProcessId, Rng& rng) { return random_set_ops(rng, ops, mix); }};
  }
  if (std::string(name) == "tree") {
    return {name, std::make_shared<TreeModel>(),
            [=](ProcessId, Rng& rng) { return random_tree_ops(rng, ops, mix); }};
  }
  if (std::string(name) == "composite") {
    // Register + queue in one store: the multi-object linearizability
    // definition under the full adversary grid.
    auto composite = std::make_shared<CompositeModel>(
        std::vector<std::shared_ptr<const ObjectModel>>{
            std::make_shared<RegisterModel>(), std::make_shared<QueueModel>()});
    return {name, composite, [=](ProcessId, Rng& rng) {
              std::vector<Operation> out;
              for (Operation& op : random_register_ops(rng, ops / 2, mix)) {
                out.push_back(CompositeModel::lift(0, std::move(op)));
              }
              for (Operation& op : random_queue_ops(rng, ops / 2, mix)) {
                out.push_back(CompositeModel::lift(1, std::move(op)));
              }
              return out;
            }};
  }
  return {name, std::make_shared<ArrayModel>(std::vector<std::int64_t>{0, 0, 0}),
          [=](ProcessId, Rng& rng) { return random_array_ops(rng, ops, mix, 3); }};
}

SweepOptions sweep_options(Tick x) {
  SweepOptions o;
  o.n = 4;
  o.timing = SystemTiming{1000, 400, 100};
  o.x = x;
  o.seeds = 3;
  return o;
}

class ReplicaSweepTest
    : public ::testing::TestWithParam<std::tuple<const char*, Tick>> {};

TEST_P(ReplicaSweepTest, AlwaysLinearizableAndWithinBounds) {
  const auto& [name, x] = GetParam();
  const SweepCase c = make_case(name);
  const SweepOptions o = sweep_options(x);
  const SweepResult result = run_replica_sweep(c.model, c.workload, o);

  EXPECT_GT(result.runs, 0);
  EXPECT_TRUE(result.all_linearizable())
      << (result.failures.empty() ? "" : result.failures.front());

  const Tick mop = result.latency.worst_for_class(OpClass::kPureMutator);
  if (mop != kNoTime) {
    EXPECT_EQ(mop, o.timing.eps + x);
  }
  const Tick aop = result.latency.worst_for_class(OpClass::kPureAccessor);
  if (aop != kNoTime) {
    EXPECT_EQ(aop, o.timing.d + o.timing.eps - x);
  }
  const Tick oop = result.latency.worst_for_class(OpClass::kOther);
  if (oop != kNoTime) {
    EXPECT_LE(oop, o.timing.d + o.timing.eps);
    EXPECT_GE(oop, o.timing.min_delay());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ReplicaSweepTest,
    ::testing::Combine(::testing::Values("register", "queue", "stack", "set",
                                         "tree", "array", "composite"),
                       ::testing::Values(Tick{0}, Tick{300})),
    [](const ::testing::TestParamInfo<std::tuple<const char*, Tick>>& info) {
      return std::string(std::get<0>(info.param)) + "_X" +
             std::to_string(std::get<1>(info.param));
    });

class CentralizedSweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CentralizedSweepTest, LinearizableAndWithin2d) {
  const SweepCase c = make_case(GetParam());
  SweepOptions o = sweep_options(0);
  o.seeds = 2;
  const SweepResult result = run_centralized_sweep(c.model, c.workload, o);
  EXPECT_TRUE(result.all_linearizable())
      << (result.failures.empty() ? "" : result.failures.front());
  for (const auto& [cls, summary] : result.latency.by_class) {
    (void)cls;
    EXPECT_LE(summary.max, 2 * o.timing.d);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, CentralizedSweepTest,
                         ::testing::Values("register", "queue", "stack", "set",
                                           "tree", "array"));

class VaryingEpsTest
    : public ::testing::TestWithParam<std::tuple<const char*, Tick>> {};

TEST_P(VaryingEpsTest, SweepHoldsAcrossSkewBounds) {
  // eps = 300 with alternating offsets is the configuration that exposed
  // the same-tick delivery/timer ordering bug -- keep it covered, along
  // with perfectly synchronized clocks (eps = 0) and eps = u.
  const auto& [name, eps] = GetParam();
  const SweepCase c = make_case(name);
  SweepOptions o = sweep_options(0);
  o.timing.eps = eps;
  o.seeds = 2;
  const SweepResult result = run_replica_sweep(c.model, c.workload, o);
  EXPECT_TRUE(result.all_linearizable())
      << (result.failures.empty() ? "" : result.failures.front());
  const Tick oop = result.latency.worst_for_class(OpClass::kOther);
  if (oop != kNoTime) {
    EXPECT_LE(oop, o.timing.d + eps);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SkewBounds, VaryingEpsTest,
    ::testing::Combine(::testing::Values("register", "queue", "stack"),
                       ::testing::Values(Tick{0}, Tick{300}, Tick{400})),
    [](const ::testing::TestParamInfo<std::tuple<const char*, Tick>>& info) {
      return std::string(std::get<0>(info.param)) + "_eps" +
             std::to_string(std::get<1>(info.param));
    });

class VaryingNTest : public ::testing::TestWithParam<int> {};

TEST_P(VaryingNTest, RegisterSweepHoldsForVaryingSystemSizes) {
  const SweepCase c = make_case("register");
  SweepOptions o = sweep_options(0);
  o.n = GetParam();
  o.seeds = 2;
  const SweepResult result = run_replica_sweep(c.model, c.workload, o);
  EXPECT_TRUE(result.all_linearizable())
      << (result.failures.empty() ? "" : result.failures.front());
}

INSTANTIATE_TEST_SUITE_P(Sizes, VaryingNTest, ::testing::Values(2, 3, 5, 8));

TEST(SweepDeterminism, SameOptionsSameLatencies) {
  const SweepCase c = make_case("queue");
  const SweepOptions o = sweep_options(0);
  const SweepResult a = run_replica_sweep(c.model, c.workload, o);
  const SweepResult b = run_replica_sweep(c.model, c.workload, o);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.latency.worst_for_class(OpClass::kOther),
            b.latency.worst_for_class(OpClass::kOther));
  EXPECT_EQ(a.latency.by_class.at(OpClass::kPureMutator).count,
            b.latency.by_class.at(OpClass::kPureMutator).count);
}

}  // namespace
}  // namespace linbound
