// The time-shift machinery: formula 4.1, chop construction, and Lemma B.1
// as an executable, randomized property.
#include "shift/shift.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace linbound {
namespace {

SystemTiming timing() { return SystemTiming{1000, 400, 100}; }

TEST(Shift, OffsetsMoveAgainstRealTime) {
  // Shifting a process +x in real time makes its clock offset smaller by x.
  auto out = shifted_offsets({0, 10, -5}, {100, 0, 50});
  EXPECT_EQ(out, (std::vector<Tick>{-100, 10, -55}));
}

TEST(Shift, ShiftedTimeMovesWithProcess) {
  EXPECT_EQ(shifted_time(500, 1, {0, 70, 0}), 570);
  EXPECT_EQ(shifted_time(500, 0, {0, 70, 0}), 500);
}

TEST(Shift, MatrixFormula41) {
  MatrixDelayPolicy m(3, 1000);
  m.set(0, 1, 800);
  const MatrixDelayPolicy s = m.shifted({100, -50, 0});
  // d'_{i,j} = d_{i,j} - x_i + x_j
  EXPECT_EQ(s.get(0, 1), 800 - 100 + (-50));
  EXPECT_EQ(s.get(1, 0), 1000 - (-50) + 100);
  EXPECT_EQ(s.get(0, 2), 1000 - 100 + 0);
  EXPECT_EQ(s.get(2, 1), 1000 - 0 + (-50));
}

TEST(Shift, PaperFig4Example) {
  // Part (a): d_{i,j} = d_{j,i} = d - u/2, shift j by u/2: both stay valid.
  const SystemTiming t = timing();
  MatrixDelayPolicy m(2, t.d - t.u / 2);
  const MatrixDelayPolicy a = m.shifted({0, t.u / 2});
  EXPECT_EQ(a.get(0, 1), t.d);
  EXPECT_EQ(a.get(1, 0), t.d - t.u);
  EXPECT_TRUE(a.invalid_entries(t).empty());

  // Part (b): d_{i,j} = d, shift j by u: i->j becomes d + u (invalid).
  MatrixDelayPolicy m2(2, t.d);
  const MatrixDelayPolicy b = m2.shifted({0, t.u});
  EXPECT_EQ(b.get(0, 1), t.d + t.u);
  EXPECT_EQ(b.get(1, 0), t.d - t.u);
  const auto invalid = b.invalid_entries(t);
  ASSERT_EQ(invalid.size(), 1u);
  EXPECT_EQ(invalid[0], (std::pair<ProcessId, ProcessId>{0, 1}));
}

TEST(Shift, ShortestPathUsesIndirectRoutes) {
  MatrixDelayPolicy m(3, 1000);
  m.set(0, 1, 900);
  m.set(1, 2, 100);
  m.set(0, 2, 5000);  // direct route worse than 0->1->2
  EXPECT_EQ(m.shortest_path(0, 2), 1000);
  EXPECT_EQ(m.shortest_path(0, 0), 0);
}

TEST(Shift, ChopSpecMatchesLemma) {
  // t* = ts + min(d_invalid, delta); V_to ends at t*, others at t* + D.
  const SystemTiming t = timing();
  MatrixDelayPolicy m(3, t.d);
  m.set(0, 1, t.d + 50);  // the single invalid delay
  const ChopSpec spec = compute_chop(m, 0, 1, /*first_send=*/2000, /*delta=*/t.d - 50);
  EXPECT_EQ(spec.t_star, 2000 + (t.d - 50));
  EXPECT_EQ(spec.view_end[1], spec.t_star);
  EXPECT_EQ(spec.view_end[0], spec.t_star + m.shortest_path(1, 0));
  EXPECT_EQ(spec.view_end[2], spec.t_star + m.shortest_path(1, 2));
}

Trace make_trace(const SystemTiming& t, const std::vector<MessageRecord>& msgs,
                 std::vector<Tick> offsets) {
  Trace trace;
  trace.timing = t;
  trace.clock_offsets = std::move(offsets);
  trace.messages = msgs;
  for (const auto& m : msgs) {
    trace.end_time = std::max(trace.end_time, std::max(m.send_time, m.recv_time));
  }
  return trace;
}

TEST(Shift, ChopTraceDropsLateReceiptsAndOps) {
  const SystemTiming t = timing();
  Trace trace = make_trace(
      t,
      {{0, 0, 1, 100, 1100},   // received at 1100
       {1, 1, 0, 200, 1200}},  // received at 1200
      {0, 0});
  OperationRecord op;
  op.token = 0;
  op.proc = 0;
  op.invoke_time = 50;
  op.response_time = 1150;
  op.ret = Value(1);
  trace.ops.append(op);

  const Trace chopped = chop_trace(trace, {1150, 1150});
  ASSERT_EQ(chopped.messages.size(), 2u);
  EXPECT_TRUE(chopped.messages[0].delivered());   // 1100 < 1150
  EXPECT_FALSE(chopped.messages[1].delivered());  // 1200 >= 1150
  ASSERT_EQ(chopped.ops.size(), 1u);
  EXPECT_FALSE(chopped.ops[0].completed());  // response at cut
}

TEST(Shift, ChopTraceDropsMessagesSentOutsideView) {
  const SystemTiming t = timing();
  Trace trace = make_trace(t, {{0, 0, 1, 2000, 3000}}, {0, 0});
  const Trace chopped = chop_trace(trace, {1000, 5000});
  EXPECT_TRUE(chopped.messages.empty());
}

TEST(Shift, LemmaB1RandomizedChopsAreAdmissible) {
  // Randomized executable Lemma B.1: build pairwise-uniform matrices, shift
  // one process so exactly one delay becomes invalid, synthesize the
  // all-pairs message traffic, chop, audit.
  const SystemTiming t = timing();
  Rng rng(20110715);
  int checked = 0;
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.uniform(3, 6));
    MatrixDelayPolicy m(n, 0);
    for (ProcessId i = 0; i < n; ++i) {
      for (ProcessId j = 0; j < n; ++j) {
        if (i != j) m.set(i, j, rng.uniform_tick(t.min_delay(), t.max_delay()));
      }
    }
    // Shift process 1 to invalidate only (0, 1): raise d_{0,1} above d by
    // shifting p1 later; make every other entry involving p1 stay valid by
    // pre-setting them to extreme values.
    const Tick x = rng.uniform_tick(1, t.u);
    for (ProcessId k = 0; k < n; ++k) {
      if (k == 1) continue;
      m.set(k, 1, t.d - x + (k == 0 ? 0 : -rng.uniform_tick(0, t.u - x)));
      m.set(1, k, t.min_delay() + x);
    }
    m.set(0, 1, t.d);
    std::vector<Tick> shift(static_cast<std::size_t>(n), 0);
    shift[1] = x;
    const MatrixDelayPolicy shifted = m.shifted(shift);
    const auto invalid = shifted.invalid_entries(t);
    ASSERT_EQ(invalid.size(), 1u) << "round " << round;
    ASSERT_EQ(invalid[0], (std::pair<ProcessId, ProcessId>{0, 1}));

    // Synthesize traffic: every process sends to every other at times
    // 0..3; apply the chop; audit.
    const Tick first_send = 0;
    const Tick delta = t.d - rng.uniform_tick(0, t.u);
    const ChopSpec spec = compute_chop(shifted, 0, 1, first_send, delta);

    Trace trace;
    trace.timing = t;
    trace.clock_offsets.assign(static_cast<std::size_t>(n), 0);
    MessageId id = 0;
    for (Tick send = 0; send <= 3000; send += 997) {
      for (ProcessId i = 0; i < n; ++i) {
        if (send >= spec.view_end[static_cast<std::size_t>(i)]) continue;
        for (ProcessId j = 0; j < n; ++j) {
          if (i == j) continue;
          MessageRecord rec;
          rec.id = id++;
          rec.from = i;
          rec.to = j;
          rec.send_time = send;
          rec.recv_time = send + shifted.get(i, j);
          trace.messages.push_back(rec);
          trace.end_time = std::max(trace.end_time, rec.recv_time);
        }
      }
    }
    const Trace chopped = chop_trace(trace, spec.view_end);
    const AdmissibilityReport report = audit_chopped(chopped, spec.view_end);
    EXPECT_TRUE(report.admissible)
        << "round " << round << ": " << (report.violations.empty()
                                             ? ""
                                             : report.violations.front());
    ++checked;
  }
  EXPECT_EQ(checked, 200);
}

}  // namespace
}  // namespace linbound
