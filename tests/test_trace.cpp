#include "sim/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "types/register_type.h"

namespace linbound {
namespace {

SystemTiming timing() { return SystemTiming{1000, 400, 100}; }

MessageRecord msg(MessageId id, ProcessId from, ProcessId to, Tick send, Tick recv) {
  MessageRecord m;
  m.id = id;
  m.from = from;
  m.to = to;
  m.send_time = send;
  m.recv_time = recv;
  return m;
}

OperationRecord op(ProcessId proc, Tick invoke, Tick response, Value ret) {
  OperationRecord rec;
  rec.proc = proc;
  rec.op = reg::read();
  rec.invoke_time = invoke;
  rec.response_time = response;
  rec.ret = std::move(ret);
  return rec;
}

TEST(Trace, AuditAcceptsCleanRun) {
  Trace t;
  t.timing = timing();
  t.clock_offsets = {0, 50};
  t.messages = {msg(0, 0, 1, 100, 1000), msg(1, 1, 0, 200, 800)};
  t.end_time = 2000;
  EXPECT_TRUE(t.audit().admissible);
}

TEST(Trace, AuditRejectsTooFastAndTooSlowDelays) {
  Trace t;
  t.timing = timing();
  t.clock_offsets = {0, 0};
  t.messages = {msg(0, 0, 1, 100, 400),    // delay 300 < d-u
                msg(1, 0, 1, 100, 1200)};  // delay 1100 > d
  const AdmissibilityReport report = t.audit();
  EXPECT_FALSE(report.admissible);
  EXPECT_EQ(report.violations.size(), 2u);
}

TEST(Trace, AuditAcceptsUndeliveredIfRunEndsEarly) {
  Trace t;
  t.timing = timing();
  t.clock_offsets = {0, 0};
  MessageRecord m = msg(0, 0, 1, 100, kNoTime);
  t.messages = {m};
  t.end_time = 900;  // < send + d = 1100
  EXPECT_TRUE(t.audit().admissible);
  t.end_time = 1100;  // run lasted past the delivery deadline
  EXPECT_FALSE(t.audit().admissible);
}

TEST(Trace, AuditRejectsExcessSkew) {
  Trace t;
  t.timing = timing();
  t.clock_offsets = {0, 150};  // eps = 100
  EXPECT_FALSE(t.audit().admissible);
}

TEST(Trace, CompletedOpsFiltersPending) {
  Trace t;
  t.timing = timing();
  t.ops.append(op(0, 10, 20, Value(1)));
  t.ops.append(op(1, 30, kNoTime, Value()));
  EXPECT_FALSE(t.complete());
  std::size_t completed = 0;
  for (const OperationRecord& rec : t.ops) completed += rec.completed();
  EXPECT_EQ(completed, 1u);
  t.ops.respond(1, 40, Value(0));
  EXPECT_TRUE(t.complete());
}

TEST(Trace, WorstLatencySelectsByPredicate) {
  Trace t;
  t.timing = timing();
  for (const OperationRecord& rec : {op(0, 0, 100, Value(1)),
                                     op(1, 0, 250, Value(2)),
                                     op(0, 300, 310, Value(3))}) {
    t.ops.append(rec);
  }
  EXPECT_EQ(t.worst_latency([](const OperationRecord&) { return true; }), 250);
  EXPECT_EQ(t.worst_latency([](const OperationRecord& r) { return r.proc == 0; }),
            100);
  EXPECT_EQ(t.worst_latency([](const OperationRecord& r) { return r.proc == 9; }),
            kNoTime);
}

static_assert(OpLog::kSlotBytes <= 48, "an operation slot is at most 48 B");

TEST(OpLog, SlotIsFortyEightBytes) { EXPECT_EQ(OpLog::kSlotBytes, 48u); }

/// A value of every shape the log stores: unit, bools, ints up to the
/// int64 limits, interned strings and nested lists.
Value random_value(Rng& rng, int depth = 0) {
  switch (rng.uniform(0, depth < 2 ? 7 : 5)) {
    case 0:
      return Value::unit();
    case 1:
      return Value(rng.chance(0.5));
    case 2:
      return Value(std::numeric_limits<std::int64_t>::min());
    case 3:
      return Value(std::numeric_limits<std::int64_t>::max());
    case 4:
      return Value(rng.uniform(-1000, 1000));
    case 5:
      return Value("s" + std::to_string(rng.uniform(0, 3)));
    default: {
      Value::List xs;
      const std::int64_t n = rng.uniform(0, 3);
      for (std::int64_t k = 0; k < n; ++k) {
        xs.push_back(random_value(rng, depth + 1));
      }
      return Value(std::move(xs));
    }
  }
}

void expect_same(const OperationRecord& got, const OperationRecord& want,
                 std::size_t i) {
  EXPECT_EQ(got.token, want.token) << i;
  EXPECT_EQ(got.proc, want.proc) << i;
  EXPECT_EQ(got.op, want.op) << i;
  EXPECT_EQ(got.invoke_time, want.invoke_time) << i;
  EXPECT_EQ(got.response_time, want.response_time) << i;
  EXPECT_EQ(got.ret, want.ret) << i;
  EXPECT_EQ(got.gave_up, want.gave_up) << i;
  EXPECT_EQ(got.give_up_time, want.give_up_time) << i;
}

TEST(OpLog, EveryRecordMaterialisesAsAppendedAndWritten) {
  // Seeded fuzz: 0..3 arguments of every value shape; pending, completed
  // and given-up records; tokens, process ids and opcodes in and out of the
  // slot's inline range.  Some records are appended pending and then
  // answered or abandoned through the log, as the simulator does.
  Rng rng(20261019);
  std::vector<OperationRecord> want;
  OpLog log;
  for (std::size_t i = 0; i < 2000; ++i) {
    OperationRecord rec;
    rec.token = rng.chance(0.8) ? static_cast<std::int64_t>(i)
                                : rng.uniform(-5, 5000);
    rec.proc = rng.chance(0.9) ? static_cast<ProcessId>(rng.uniform(0, 8))
                               : static_cast<ProcessId>(rng.uniform(-1, 1) *
                                                        70000);
    rec.op.code = rng.chance(0.9) ? static_cast<OpCode>(rng.uniform(0, 20))
                                  : static_cast<OpCode>(-40000);
    const std::int64_t argc = rng.uniform(0, 3);
    for (std::int64_t a = 0; a < argc; ++a) {
      rec.op.args.push_back(random_value(rng));
    }
    rec.invoke_time = rng.chance(0.1) ? kNoTime : rng.uniform(0, 100000);
    switch (rng.uniform(0, 4)) {
      case 0:  // pending
        break;
      case 1:  // given up on append
        rec.gave_up = true;
        rec.give_up_time = rng.uniform(0, 100000);
        break;
      default:  // completed
        rec.response_time = rec.invoke_time + rng.uniform(0, 500);
        rec.ret = random_value(rng);
        break;
    }
    log.append(rec);
    if (!rec.completed() && !rec.gave_up && rng.chance(0.5)) {
      if (rng.chance(0.5)) {
        rec.response_time = rng.uniform(0, 100000);
        rec.ret = random_value(rng);
        log.respond(i, rec.response_time, rec.ret);
      } else {
        rec.gave_up = true;
        rec.give_up_time = rng.uniform(0, 100000);
        log.give_up(i, rec.give_up_time);
      }
    }
    want.push_back(rec);
  }
  ASSERT_EQ(log.size(), want.size());
  std::size_t i = 0;
  for (const OperationRecord& got : log) {
    expect_same(got, want[i], i);
    expect_same(log[i], want[i], i);
    EXPECT_EQ(log.token(i), want[i].token) << i;
    EXPECT_EQ(log.proc(i), want[i].proc) << i;
    EXPECT_EQ(log.completed(i), want[i].completed()) << i;
    EXPECT_EQ(log.gave_up(i), want[i].gave_up) << i;
    ++i;
  }
  EXPECT_EQ(i, want.size());
  // A copy is independent of its source.
  OpLog copy = log;
  copy.respond(0, 7, Value("late"));
  expect_same(log[0], want[0], 0);
  EXPECT_EQ(copy[0].ret, Value("late"));
}

TEST(MessageRecord, DelayAndDeliveredFlags) {
  MessageRecord m = msg(0, 0, 1, 100, 800);
  EXPECT_TRUE(m.delivered());
  EXPECT_EQ(m.delay(), 700);
  m.recv_time = kNoTime;
  EXPECT_FALSE(m.delivered());
}

}  // namespace
}  // namespace linbound
