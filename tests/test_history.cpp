#include "checker/history.h"

#include <gtest/gtest.h>

#include "types/register_type.h"

namespace linbound {
namespace {

TEST(History, IndexesByProcessInInvocationOrder) {
  History h({{0, reg::write(1), Value::unit(), 10, 20},
             {1, reg::read(), Value(1), 5, 30},
             {0, reg::write(2), Value::unit(), 25, 35}});
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.process_count(), 2);
  ASSERT_EQ(h.by_process(0).size(), 2u);
  EXPECT_EQ(h.by_process(0)[0], 0u);
  EXPECT_EQ(h.by_process(0)[1], 2u);
  ASSERT_EQ(h.by_process(1).size(), 1u);
  EXPECT_TRUE(h.by_process(7).empty());
}

TEST(History, RejectsOverlapWithinProcess) {
  EXPECT_THROW(History({{0, reg::write(1), Value::unit(), 10, 30},
                        {0, reg::write(2), Value::unit(), 20, 40}}),
               std::invalid_argument);
}

TEST(History, RejectsResponseBeforeInvocation) {
  EXPECT_THROW(History({{0, reg::read(), Value(0), 10, 5}}), std::invalid_argument);
}

TEST(History, AllowsBackToBackAtSameTick) {
  History h({{0, reg::write(1), Value::unit(), 10, 20},
             {0, reg::read(), Value(1), 20, 20}});
  EXPECT_EQ(h.size(), 2u);
}

TEST(History, FromTraceRequiresCompletion) {
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 100};
  OperationRecord rec;
  rec.token = 0;
  rec.proc = 0;
  rec.op = reg::read();
  rec.invoke_time = 5;
  rec.response_time = kNoTime;
  trace.ops.append(rec);
  EXPECT_THROW(History::from_trace(trace), std::invalid_argument);
  trace.ops.respond(0, 9, Value(0));
  EXPECT_EQ(History::from_trace(trace).size(), 1u);
}

TEST(History, ToStringMentionsOps) {
  RegisterModel model;
  History h({{0, reg::write(3), Value::unit(), 1, 2}});
  EXPECT_NE(h.to_string(model).find("write(3)"), std::string::npos);
}

}  // namespace
}  // namespace linbound
