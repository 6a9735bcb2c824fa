#include "core/driver.h"

#include <gtest/gtest.h>

#include "core/system.h"
#include "core/workload.h"
#include "types/queue_type.h"
#include "types/register_type.h"
#include "types/stack_type.h"

namespace linbound {
namespace {

SystemOptions options() {
  SystemOptions o;
  o.n = 3;
  o.timing = SystemTiming{1000, 400, 100};
  return o;
}

TEST(Driver, RunsScriptsToCompletion) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options());
  std::vector<ClientScript> scripts{
      {0, {reg::write(1), reg::write(2)}, 1000, 10},
      {1, {reg::read(), reg::read()}, 1000, 0},
  };
  WorkloadDriver driver(system.sim(), scripts);
  driver.arm();
  History h = system.run_to_completion();
  EXPECT_EQ(h.size(), 4u);
}

TEST(Driver, HonorsThinkTime) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options());
  std::vector<ClientScript> scripts{{0, {reg::write(1), reg::write(2)}, 500, 77}};
  WorkloadDriver driver(system.sim(), scripts);
  driver.arm();
  History h = system.run_to_completion();
  ASSERT_EQ(h.size(), 2u);
  const auto& first = h.ops()[h.by_process(0)[0]];
  const auto& second = h.ops()[h.by_process(0)[1]];
  EXPECT_EQ(second.invoke, first.response + 77);
}

TEST(Driver, OneOpAtATimePerProcess) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options());
  std::vector<Operation> many(10, reg::write(1));
  std::vector<ClientScript> scripts{{0, many, 0, 0}};
  WorkloadDriver driver(system.sim(), scripts);
  driver.arm();
  // If the driver double-invoked, run_to_completion would throw.
  History h;
  EXPECT_NO_THROW(h = system.run_to_completion());
  EXPECT_EQ(h.size(), 10u);
}

TEST(Driver, RejectsDuplicateProcessScripts) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options());
  std::vector<ClientScript> scripts{{0, {reg::read()}, 0, 0},
                                    {0, {reg::read()}, 0, 0}};
  EXPECT_THROW(WorkloadDriver(system.sim(), scripts), std::invalid_argument);
}

TEST(Driver, RejectsUnknownProcess) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options());
  std::vector<ClientScript> scripts{{9, {reg::read()}, 0, 0}};
  EXPECT_THROW(WorkloadDriver(system.sim(), scripts), std::invalid_argument);
}

TEST(Driver, ForwardsResponsesToCallback) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options());
  int seen = 0;
  std::vector<ClientScript> scripts{{0, {reg::write(1), reg::read()}, 0, 0}};
  WorkloadDriver driver(system.sim(), scripts,
                        [&](const OperationRecord&) { ++seen; });
  driver.arm();
  system.run_to_completion();
  EXPECT_EQ(seen, 2);
}

TEST(Workload, GeneratorsAreDeterministic) {
  Rng a(5), b(5);
  OpMix mix;
  EXPECT_EQ(random_register_ops(a, 50, mix).size(), 50u);
  auto x = random_queue_ops(a, 30, mix);
  Rng a2(5);
  (void)random_register_ops(a2, 50, mix);
  auto y = random_queue_ops(a2, 30, mix);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_TRUE(x[i] == y[i]);
  (void)b;
}

TEST(Workload, MixWeightsAreRespected) {
  Rng rng(9);
  OpMix only_mutators{0, 1, 0};
  for (const Operation& op : random_stack_ops(rng, 40, only_mutators)) {
    EXPECT_EQ(op.code, StackModel::kPush);
  }
  OpMix only_accessors{1, 0, 0};
  for (const Operation& op : random_queue_ops(rng, 40, only_accessors)) {
    EXPECT_TRUE(op.code == QueueModel::kPeek || op.code == QueueModel::kSize);
  }
}

}  // namespace
}  // namespace linbound
