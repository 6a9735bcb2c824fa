#include "sim/trace_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "fault/churn.h"
#include "fault/fault_policy.h"
#include "types/queue_type.h"
#include "types/register_type.h"

namespace linbound {
namespace {

TEST(ValueParse, RoundTripsEveryShape) {
  Value deepest(7);  // lists nested to the parser's 64-deep cap
  for (int depth = 0; depth < 64; ++depth) deepest = Value(Value::List{deepest});
  const Value values[] = {
      Value::unit(),
      Value(0),
      Value(-42),
      Value(std::int64_t{9000000000}),
      Value(true),
      Value(false),
      Value("hello world"),
      Value(""),
      Value(Value::List{}),
      Value(Value::List{Value(1), Value("x"),
                        Value(Value::List{Value(false), Value::unit()})}),
      deepest,
  };
  for (const Value& v : values) {
    auto parsed = Value::parse(v.to_string());
    ASSERT_TRUE(parsed.has_value()) << v.to_string();
    EXPECT_EQ(*parsed, v) << v.to_string();
  }
}

TEST(ValueParse, RejectsMalformedInput) {
  // The last three nest lists past the 64-deep cap, up to a million deep:
  // rejected, not a stack overflow.
  auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  for (const std::string& bad :
       {std::string(""), std::string("("), std::string("[1, 2"),
        std::string("\"unterminated"), std::string("12x"), std::string("tru"),
        std::string("1 2"), std::string("[]]"), std::string("--3"), nested(65),
        nested(200'000), std::string(1'000'000, '[')}) {
    EXPECT_FALSE(Value::parse(bad).has_value()) << bad.substr(0, 40);
  }
}

TEST(TraceIo, RoundTripsHandBuiltTrace) {
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 300};
  trace.clock_offsets = {0, 150, -20};
  trace.end_time = 5000;
  MessageRecord m;
  m.id = 7;
  m.from = 0;
  m.to = 2;
  m.send_time = 100;
  m.recv_time = 900;
  trace.messages.push_back(m);
  m.id = 8;
  m.recv_time = kNoTime;  // undelivered
  trace.messages.push_back(m);
  OperationRecord rec;
  rec.token = 0;
  rec.proc = 1;
  rec.op = queue_ops::enqueue(5);
  rec.invoke_time = 200;
  rec.response_time = 500;
  rec.ret = Value::unit();
  trace.ops.append(rec);
  rec.token = 1;
  rec.op = queue_ops::dequeue();
  rec.invoke_time = 600;
  rec.response_time = kNoTime;  // pending
  trace.ops.append(rec);

  std::string error;
  auto parsed = trace_from_string(trace_to_string(trace), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->timing.d, 1000);
  EXPECT_EQ(parsed->clock_offsets, trace.clock_offsets);
  EXPECT_EQ(parsed->end_time, 5000);
  ASSERT_EQ(parsed->messages.size(), 2u);
  EXPECT_EQ(parsed->messages[0].recv_time, 900);
  EXPECT_FALSE(parsed->messages[1].delivered());
  ASSERT_EQ(parsed->ops.size(), 2u);
  EXPECT_EQ(parsed->ops[0].op.args.at(0), Value(5));
  EXPECT_EQ(parsed->ops[0].ret, Value::unit());
  EXPECT_FALSE(parsed->ops[1].completed());
  // Serialization is canonical: round-trip twice gives identical text.
  EXPECT_EQ(trace_to_string(*parsed), trace_to_string(trace));
}

TEST(TraceIo, RoundTripsARealRun) {
  auto model = std::make_shared<RegisterModel>();
  SystemOptions o;
  o.n = 3;
  o.timing = SystemTiming{1000, 400, 100};
  o.delays = std::make_shared<UniformDelayPolicy>(o.timing, 5);
  ReplicaSystem system(model, o);
  system.sim().invoke_at(1000, 0, reg::write(3));
  system.sim().invoke_at(1200, 1, reg::rmw(4));
  system.sim().invoke_at(3000, 2, reg::read());
  system.run_to_completion();

  const Trace& original = system.sim().trace();
  std::string error;
  auto parsed = trace_from_string(trace_to_string(original), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(trace_to_string(*parsed), trace_to_string(original));
  // The reloaded trace audits identically and yields the same history.
  EXPECT_EQ(parsed->audit().admissible, original.audit().admissible);
  EXPECT_EQ(History::from_trace(*parsed).size(),
            History::from_trace(original).size());
}

TEST(TraceIo, ReconstructsGiveUpFromFaultEvents) {
  // gave_up / give_up_time are not op fields on the wire; the reader
  // rebuilds them from kOperationGivenUp fault events (magnitude = token),
  // keeping the v1 grammar and archived trace hashes unchanged.
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 300};
  trace.end_time = 6000;
  OperationRecord rec;
  rec.token = 0;
  rec.proc = 0;
  rec.op = reg::write(1);
  rec.invoke_time = 200;
  rec.response_time = 900;
  rec.ret = Value::unit();
  trace.ops.append(rec);
  rec.token = 1;
  rec.proc = 1;
  rec.op = reg::read();
  rec.invoke_time = 600;
  rec.response_time = kNoTime;
  rec.ret = Value();
  rec.gave_up = true;
  rec.give_up_time = 4200;
  trace.ops.append(rec);
  FaultEvent f;
  f.kind = FaultKind::kOperationGivenUp;
  f.time = 4200;
  f.proc = 1;
  f.magnitude = 1;  // the abandoned token
  trace.faults.push_back(f);

  std::string error;
  auto parsed = trace_from_string(trace_to_string(trace), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->ops.size(), 2u);
  EXPECT_FALSE(parsed->ops[0].gave_up);
  EXPECT_TRUE(parsed->ops[1].gave_up);
  EXPECT_EQ(parsed->ops[1].give_up_time, 4200);
  EXPECT_FALSE(parsed->ops[1].completed());
  EXPECT_EQ(trace_to_string(*parsed), trace_to_string(trace));
  EXPECT_EQ(hash_trace(*parsed), hash_trace(trace));
}

TEST(TraceIo, GiveUpFindsItsOpWhereTheTokenIsNotTheIndex) {
  // Tokens 10..13 sit at indices 0..3, and token 2 appears twice (index 4
  // and index 2's token is 12): each give-up event marks the first op in
  // trace order that carries its token, wherever that op sits.
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 300};
  trace.end_time = 9000;
  OperationRecord rec;
  rec.op = reg::read();
  rec.invoke_time = 100;
  for (const std::int64_t token : {10, 11, 12, 13, 2, 5, 2}) {
    rec.token = token;
    trace.ops.append(rec);
  }
  for (const std::int64_t token : {12, 2, 5, 99}) {
    FaultEvent f;
    f.kind = FaultKind::kOperationGivenUp;
    f.time = 1000 + token;
    f.magnitude = token;
    trace.faults.push_back(f);
  }
  std::string error;
  auto parsed = trace_from_string(trace_to_string(trace), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const std::vector<bool> gave_up{false, false, true, false, true, true, false};
  ASSERT_EQ(parsed->ops.size(), gave_up.size());
  for (std::size_t i = 0; i < gave_up.size(); ++i) {
    const OperationRecord got = parsed->ops[i];
    EXPECT_EQ(got.gave_up, gave_up[i]) << i;
    EXPECT_EQ(got.give_up_time, gave_up[i] ? 1000 + got.token : kNoTime) << i;
  }
  // Index 5's token equals the index, so its event finds it directly.
  EXPECT_EQ(parsed->ops.token(5), 5);
  EXPECT_EQ(trace_to_string(*parsed), trace_to_string(trace));
}

/// A value of every shape the trace grammar carries: unit, bools, ints up
/// to the int64 limits, strings and nested lists.
Value fuzz_value(Rng& rng, int depth = 0) {
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
      return Value("v " + std::to_string(rng.uniform(0, 3)));
    default: {
      Value::List xs;
      const std::int64_t n = rng.uniform(0, 3);
      for (std::int64_t k = 0; k < n; ++k) xs.push_back(fuzz_value(rng, depth + 1));
      return Value(std::move(xs));
    }
  }
}

TEST(TraceIo, FuzzedOpLogRoundTrips) {
  // Seeded fuzz over the op log's shapes: 0..3 arguments of every value
  // kind, pending / completed / given-up records, and (unique) tokens that
  // are not their index.  Reading the text back materialises every record
  // field-equal, and writing it again gives the same text.
  Rng rng(7);
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 300};
  trace.clock_offsets = {0, 10, -20};
  trace.end_time = 200000;
  std::vector<OperationRecord> want;
  for (std::size_t i = 0; i < 1500; ++i) {
    OperationRecord rec;
    rec.token = rng.chance(0.8) ? static_cast<std::int64_t>(i)
                                : -1 - static_cast<std::int64_t>(i);
    rec.proc = static_cast<ProcessId>(rng.uniform(0, 2));
    rec.op.code = static_cast<OpCode>(rng.uniform(0, 12));
    const std::int64_t argc = rng.uniform(0, 3);
    for (std::int64_t a = 0; a < argc; ++a) rec.op.args.push_back(fuzz_value(rng));
    rec.invoke_time = rng.chance(0.05) ? kNoTime : rng.uniform(0, 100000);
    switch (rng.uniform(0, 3)) {
      case 0:  // pending
        break;
      case 1: {  // given up: the fault event carries it on the wire
        rec.gave_up = true;
        rec.give_up_time = rng.uniform(0, 150000);
        FaultEvent f;
        f.kind = FaultKind::kOperationGivenUp;
        f.time = rec.give_up_time;
        f.proc = rec.proc;
        f.magnitude = rec.token;
        trace.faults.push_back(f);
        break;
      }
      default:
        rec.response_time = rng.uniform(0, 150000);
        rec.ret = fuzz_value(rng);
        break;
    }
    trace.ops.append(rec);
    want.push_back(rec);
  }
  const std::string text = trace_to_string(trace);
  std::string error;
  auto parsed = trace_from_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->ops.size(), want.size());
  std::size_t i = 0;
  for (const OperationRecord& got : parsed->ops) {
    const OperationRecord& w = want[i];
    EXPECT_EQ(got.token, w.token) << i;
    EXPECT_EQ(got.proc, w.proc) << i;
    EXPECT_EQ(got.op, w.op) << i;
    EXPECT_EQ(got.invoke_time, w.invoke_time) << i;
    EXPECT_EQ(got.response_time, w.response_time) << i;
    EXPECT_EQ(got.ret, w.ret) << i;
    EXPECT_EQ(got.gave_up, w.gave_up) << i;
    EXPECT_EQ(got.give_up_time, w.give_up_time) << i;
    ++i;
  }
  EXPECT_EQ(trace_to_string(*parsed), text);
  EXPECT_EQ(hash_trace(*parsed), hash_trace(trace));
}

/// FNV-1a over a byte string: the function hash_trace applies to the
/// serialization.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

/// Every shape the formatter prints: kNoTime dashes, negative offsets,
/// INT64_MIN/MAX in plain and dash-able fields, every Value alternative, a
/// string argument longer than any fixed formatting buffer, and one line of
/// every FaultKind.
Trace edge_case_trace() {
  constexpr Tick kMin = std::numeric_limits<Tick>::min();
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 300};
  trace.clock_offsets = {-300, 0, kMax, kMin};
  trace.end_time = kMax;
  MessageRecord m;
  m.id = 0;
  m.from = 0;
  m.to = 1;
  m.send_time = kMin;
  m.recv_time = kNoTime;
  trace.messages.push_back(m);
  m.id = kMax;
  m.from = kNoProcess;
  m.to = 2;
  m.send_time = -5;
  m.recv_time = kMax;
  trace.messages.push_back(m);
  OperationRecord rec;
  rec.token = kMin;
  rec.proc = 2;
  rec.op.code = -7;
  rec.op.args = {Value(kMin), Value(true), Value("x"),
                 Value(Value::List{Value(1), Value("a"),
                                   Value(Value::List{Value(false),
                                                     Value::unit()})})};
  rec.invoke_time = kNoTime;
  rec.response_time = kNoTime;
  rec.ret = Value::unit();
  trace.ops.append(rec);
  rec.token = kMax;
  rec.proc = 0;
  rec.op.code = 3;
  rec.op.args = {Value(std::string(9000, 'q')), Value(false)};
  rec.invoke_time = -20;
  rec.response_time = kMax;
  rec.ret = Value(std::string(5000, 's'));
  trace.ops.append(rec);
  for (int k = 0; k < static_cast<int>(FaultKind::kFaultKindCount); ++k) {
    FaultEvent f;
    f.kind = static_cast<FaultKind>(k);
    f.time = k % 2 ? kMin : kMax - k;
    f.proc = k;
    f.peer = kNoProcess;
    f.msg = k % 2 ? -1 : kMin;
    f.magnitude = -k;
    trace.faults.push_back(f);
  }
  return trace;
}

/// A real run with drops, duplicates, spikes and crash-recovery churn.
Trace faulted_churned_run() {
  auto model = std::make_shared<RegisterModel>();
  SystemOptions o;
  o.n = 3;
  o.timing = SystemTiming{1000, 400, 100};
  o.delays = std::make_shared<UniformDelayPolicy>(o.timing, 9);
  FaultConfig faults;
  faults.seed = 5;
  faults.drop_p = 0.1;
  faults.dup_p = 0.1;
  faults.spike_p = 0.2;
  faults.spike_max = 1500;
  faults.churn.mean_uptime = 4000;
  faults.churn.mean_downtime = 1500;
  faults.churn.start = 1500;
  faults.churn.horizon = 9000;
  faults.churn.max_down = 1;
  o.faults = make_fault_policy(faults);
  ReplicaSystem system(model, o);
  make_churn_schedule(faults, o.n).apply(system.sim());
  for (int i = 0; i < 12; ++i) {
    system.sim().invoke_at(1000 + 700 * i, i % 3,
                           i % 2 ? reg::read() : reg::write(i));
  }
  system.sim().start();
  system.sim().run();
  return system.sim().trace();
}

TEST(TraceIo, HashIsFnvOfSerialization) {
  const Trace edge = edge_case_trace();
  const std::string text = trace_to_string(edge);
  EXPECT_NE(text.find("op 9223372036854775807 0 3 -20 9223372036854775807"),
            std::string::npos);
  EXPECT_NE(text.find("msg 0 0 1 -9223372036854775808 -\n"),
            std::string::npos);
  EXPECT_EQ(hash_trace(edge), fnv1a(text));
  // Pinned, so the serialization and the hash cannot drift together.
  EXPECT_EQ(hash_trace(edge), 0xea64699a888ee9e9ull);
  EXPECT_EQ(hash_trace(Trace{}), fnv1a(trace_to_string(Trace{})));

  const Trace run = faulted_churned_run();
  ASSERT_FALSE(run.faults.empty());
  bool crashed = false;
  for (const FaultEvent& f : run.faults) {
    crashed = crashed || f.kind == FaultKind::kProcessCrashed;
  }
  EXPECT_TRUE(crashed);
  EXPECT_EQ(hash_trace(run), fnv1a(trace_to_string(run)));
}

/// `t` with operation `i` rebuilt by `edit`: the op log has no setter for
/// codes, arguments or tokens, so the log is appended afresh.
template <typename Edit>
Trace with_op(const Trace& t, std::size_t i, Edit edit) {
  Trace out = t;
  out.ops = OpLog();
  for (std::size_t j = 0; j < t.ops.size(); ++j) {
    OperationRecord rec = t.ops[j];
    if (j == i) edit(rec);
    out.ops.append(rec);
  }
  return out;
}

/// Copies of `base`, each with one serialized field changed.
std::vector<Trace> one_field_mutants(const Trace& base) {
  std::vector<Trace> out;
  const auto mutate = [&](auto edit) {
    Trace t = base;
    edit(t);
    out.push_back(std::move(t));
  };
  mutate([](Trace& t) { ++t.timing.d; });
  mutate([](Trace& t) { ++t.timing.u; });
  mutate([](Trace& t) { ++t.timing.eps; });
  mutate([](Trace& t) { t.clock_offsets.front() ^= 1; });
  mutate([](Trace& t) { t.clock_offsets.push_back(0); });
  mutate([](Trace& t) { t.end_time ^= 1; });
  for (std::size_t m = 0; m < base.messages.size(); m += 7) {
    mutate([m](Trace& t) { t.messages[m].id ^= 1; });
    mutate([m](Trace& t) { t.messages[m].from ^= 1; });
    mutate([m](Trace& t) { t.messages[m].to ^= 1; });
    mutate([m](Trace& t) { t.messages[m].send_time ^= 1; });
    mutate([m](Trace& t) {
      Tick& r = t.messages[m].recv_time;
      r = r == kNoTime ? 0 : kNoTime;
    });
  }
  mutate([](Trace& t) { t.messages.pop_back(); });
  for (std::size_t i = 0; i < base.ops.size(); i += 3) {
    out.push_back(with_op(base, i, [](OperationRecord& r) { r.token ^= 1; }));
    out.push_back(with_op(base, i, [](OperationRecord& r) { r.proc ^= 1; }));
    out.push_back(with_op(base, i, [](OperationRecord& r) { r.op.code ^= 1; }));
    mutate([i](Trace& t) {
      t.ops.stamp_invoke(i, t.ops.invoke_time(i) == 5 ? 6 : 5);
    });
    mutate([i](Trace& t) {
      t.ops.respond(i, t.ops.response_time(i) ^ 1, t.ops[i].ret);
    });
    mutate([i](Trace& t) {
      t.ops.respond(i, t.ops.response_time(i), Value(std::int64_t{-77}));
    });
    mutate([i](Trace& t) { t.ops.respond(i, t.ops.response_time(i), "r"); });
    out.push_back(with_op(base, i, [](OperationRecord& r) {
      r.op.args.push_back(Value(true));
    }));
    out.push_back(with_op(base, i, [](OperationRecord& r) {
      if (r.op.args.empty()) {
        r.op.args.push_back(Value::unit());
      } else {
        r.op.args[0] = r.op.args[0] == Value(1) ? Value(2) : Value(1);
      }
    }));
  }
  mutate([](Trace& t) { t.ops = with_op(t, 0, [](OperationRecord&) {}).ops; });
  for (std::size_t f = 0; f < base.faults.size(); f += 2) {
    mutate([f](Trace& t) {
      FaultKind& k = t.faults[f].kind;
      k = k == FaultKind::kMessageDropped ? FaultKind::kDelaySpike
                                          : FaultKind::kMessageDropped;
    });
    mutate([f](Trace& t) { t.faults[f].time ^= 1; });
    mutate([f](Trace& t) { t.faults[f].proc ^= 1; });
    mutate([f](Trace& t) { t.faults[f].peer ^= 1; });
    mutate([f](Trace& t) { t.faults[f].msg ^= 1; });
    mutate([f](Trace& t) { t.faults[f].magnitude ^= 1; });
  }
  mutate([](Trace& t) { t.faults.pop_back(); });
  return out;
}

// same_trace is the serialization's equality, read off the fields: it
// agrees with comparing trace_to_string texts on every one-field mutant of
// the edge-case trace and of a faulted, churned run, and ignores what the
// text leaves out (stats, give-up marks).
TEST(TraceIo, SameTraceAgreesWithTheSerialization) {
  for (const Trace& base : {edge_case_trace(), faulted_churned_run()}) {
    const std::string text = trace_to_string(base);
    const Trace copy = base;
    EXPECT_TRUE(same_trace(base, copy));

    int differing = 0;
    const std::vector<Trace> mutants = one_field_mutants(base);
    for (std::size_t k = 0; k < mutants.size(); ++k) {
      const bool same_text = trace_to_string(mutants[k]) == text;
      EXPECT_EQ(same_trace(base, mutants[k]), same_text) << "mutant " << k;
      EXPECT_EQ(same_trace(mutants[k], base), same_text) << "mutant " << k;
      if (!same_text) ++differing;
    }
    // Every mutant but the op log rebuilt unchanged changes the text.
    EXPECT_EQ(differing, static_cast<int>(mutants.size()) - 1);

    Trace unserialized = base;
    ++unserialized.stats.timers_set;
    unserialized.ops.give_up(0, 123);
    EXPECT_EQ(trace_to_string(unserialized), text);
    EXPECT_TRUE(same_trace(base, unserialized));
  }
}

TEST(TraceIo, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(trace_from_string("not a trace", &error).has_value());
  EXPECT_FALSE(trace_from_string("trace v1\nbogus line", &error).has_value());
  EXPECT_FALSE(
      trace_from_string("trace v1\nmsg 1 2", &error).has_value());
  EXPECT_FALSE(error.empty());
  // An op line whose return field nests 200,000 lists is a typed error,
  // not a stack overflow in the value parser.
  const std::string deep_op = "trace v1\ntiming 1000 400 300\noffsets 0\n"
                              "end 100\nop 1 0 0 10 20\t" +
                              std::string(200'000, '[') + "\n";
  error.clear();
  EXPECT_FALSE(trace_from_string(deep_op, &error).has_value());
  EXPECT_EQ(error.rfind("bad return value", 0), 0u) << error.substr(0, 80);
}

}  // namespace
}  // namespace linbound
