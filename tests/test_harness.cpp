#include <gtest/gtest.h>

#include "harness/bounds_table.h"
#include "harness/latency.h"
#include "types/register_type.h"

namespace linbound {
namespace {

TEST(LatencySummary, TracksMinMaxMean) {
  LatencySummary s;
  s.record(10);
  s.record(30);
  s.record(20);
  EXPECT_EQ(s.min, 10);
  EXPECT_EQ(s.max, 30);
  EXPECT_EQ(s.count, 3);
  EXPECT_DOUBLE_EQ(s.mean(), 20.0);
}

TEST(LatencyReport, AbsorbsCompletedOpsOnly) {
  RegisterModel model;
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 100};
  OperationRecord done;
  done.proc = 0;
  done.op = reg::write(1);
  done.invoke_time = 0;
  done.response_time = 300;
  OperationRecord pending;
  pending.proc = 1;
  pending.op = reg::read();
  pending.invoke_time = 100;
  pending.response_time = kNoTime;
  trace.ops.append(done);
  trace.ops.append(pending);

  LatencyReport report;
  report.absorb(model, trace);
  EXPECT_EQ(report.worst_for_code(RegisterModel::kWrite), 300);
  EXPECT_EQ(report.worst_for_code(RegisterModel::kRead), kNoTime);
  EXPECT_EQ(report.worst_for_class(OpClass::kPureMutator), 300);
}

TEST(LatencySummary, PercentilesAreExact) {
  LatencySummary s;
  for (Tick v : {10, 20, 30, 40, 50, 60, 70, 80, 90, 100}) s.record(v);
  EXPECT_EQ(s.percentile(0), 10);
  EXPECT_EQ(s.percentile(50), 50);
  EXPECT_EQ(s.percentile(90), 90);
  EXPECT_EQ(s.percentile(99), 100);
  EXPECT_EQ(s.percentile(100), 100);
  EXPECT_EQ(LatencySummary{}.percentile(50), kNoTime);
}

TEST(LatencySummary, PercentileOfSingleSample) {
  LatencySummary s;
  s.record(42);
  EXPECT_EQ(s.percentile(1), 42);
  EXPECT_EQ(s.percentile(99), 42);
}

TEST(LatencyReport, MergeCombinesExtremes) {
  LatencyReport a, b;
  a.by_code[0].record(100);
  b.by_code[0].record(50);
  b.by_code[0].record(300);
  b.by_code[1].record(7);
  a.merge(b);
  EXPECT_EQ(a.by_code[0].min, 50);
  EXPECT_EQ(a.by_code[0].max, 300);
  EXPECT_EQ(a.by_code[0].count, 3);
  EXPECT_EQ(a.by_code[1].max, 7);
  EXPECT_EQ(a.by_code[0].samples.size(), 3u);
  EXPECT_EQ(a.by_code[0].percentile(50), 100);
}

TEST(BoundsTable, RendersFormulasAndValues) {
  SystemTiming t{1000, 400, 300};
  BoundsTable table("test", t, 4, 0);
  table.add_row({"write", "u/2", 200, "(1-1/n)u", 300, "eps", 300, 300});
  const std::string out = table.render();
  EXPECT_NE(out.find("u/2 = 200us"), std::string::npos);
  EXPECT_NE(out.find("(1-1/n)u = 300us"), std::string::npos);
  EXPECT_NE(out.find("n=4"), std::string::npos);
}

TEST(BoundsTable, ConsistencyChecksMeasuredAgainstBounds) {
  SystemTiming t{1000, 400, 300};
  {
    BoundsTable table("ok", t, 4, 0);
    table.add_row({"op", "", kNoTime, "lb", 100, "ub", 200, 150});
    EXPECT_TRUE(table.consistent());
  }
  {
    BoundsTable table("below-lb", t, 4, 0);
    table.add_row({"op", "", kNoTime, "lb", 100, "ub", 200, 50});
    EXPECT_FALSE(table.consistent());
  }
  {
    BoundsTable table("above-ub", t, 4, 0);
    table.add_row({"op", "", kNoTime, "lb", 100, "ub", 200, 250});
    EXPECT_FALSE(table.consistent());
  }
  {
    BoundsTable table("unmeasured", t, 4, 0);
    table.add_row({"op", "", kNoTime, "lb", 100, "ub", 200, kNoTime});
    EXPECT_TRUE(table.consistent());
  }
}

TEST(BoundFormulas, EvaluateThePaperExpressions) {
  SystemTiming t{1000, 400, 300};
  EXPECT_EQ(eval_d_plus_m(t), 1300);
  EXPECT_EQ(eval_one_minus_inv_n_u(t, 4), 300);
  EXPECT_EQ(eval_d_plus_eps(t), 1300);
  EXPECT_EQ(eval_d_plus_2eps(t), 1600);
  // m switches to u or d/3 when they bind.
  SystemTiming small_u{1000, 90, 300};
  EXPECT_EQ(eval_d_plus_m(small_u), 1090);
  SystemTiming small_d{300, 250, 250};
  EXPECT_EQ(eval_d_plus_m(small_d), 400);  // d/3 = 100 binds
}

}  // namespace
}  // namespace linbound
