// The streaming checker's contract: verdict and witness byte-identical to
// the offline serial seed checker (through history_with_pending) for every
// trace, with an explanation that is deterministic
// and non-empty exactly when the offline one is non-empty.  Exercised by
// unit tests for the online cut rules (tentative-cut merge, pendings
// straddling window boundaries), differential fuzz over synthetic traces
// and real simulator runs (clean and faulted), planted non-linearizable
// mutants, the shared state budget, and the observation-only guarantee
// (attaching the checker never changes the trace).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checker/history.h"
#include "checker/lin_checker.h"
#include "checker/streaming_checker.h"
#include "common/rng.h"
#include "core/replica_algorithm.h"
#include "core/system.h"
#include "core/workload.h"
#include "fault/fault_policy.h"
#include "shard/shard.h"
#include "sim/trace_io.h"
#include "types/queue_type.h"
#include "types/register_type.h"

namespace linbound {
namespace {

// --- synthetic trace helpers -------------------------------------------------

OperationRecord done(ProcessId proc, Operation op, Value ret, Tick invoke,
                     Tick response) {
  OperationRecord rec;
  rec.proc = proc;
  rec.op = op;
  rec.ret = std::move(ret);
  rec.invoke_time = invoke;
  rec.response_time = response;
  return rec;
}

OperationRecord pend(ProcessId proc, Operation op, Tick invoke) {
  OperationRecord rec;
  rec.proc = proc;
  rec.op = op;
  rec.invoke_time = invoke;
  return rec;
}

/// Tokens are trace-order indices, exactly as the simulator assigns them.
Trace make_trace(std::vector<OperationRecord> ops) {
  Trace t;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].token = static_cast<std::int64_t>(i);
  }
  t.ops = std::move(ops);
  return t;
}

CheckResult offline(const ObjectModel& model, const Trace& trace,
                    const CheckLimits& limits = {}) {
  auto [history, pending] = history_with_pending(trace);
  return check_linearizable_with_pending(model, history, pending, limits);
}

/// The contract under test: ok and witness byte-identical; explanations
/// non-empty on the same runs (their text may legitimately differ -- eager
/// retirement gives up the offline traversal order between segments).
void expect_matches_offline(const ObjectModel& model, const Trace& trace,
                            const char* label) {
  const CheckResult expected = offline(model, trace);
  const CheckResult got = streaming_check_trace(model, trace);
  EXPECT_EQ(expected.ok, got.ok) << label;
  EXPECT_EQ(expected.witness, got.witness) << label;
  if (!expected.ok) {
    // On failure both paths explain themselves; the texts may differ
    // (eager retirement changes which branch is reached first).
    EXPECT_FALSE(got.explanation.empty()) << label;
  } else {
    EXPECT_TRUE(got.explanation.empty()) << label << ": " << got.explanation;
  }
}

// --- online cut rules --------------------------------------------------------

TEST(StreamingChecker, PendingTriggerForcesMergeBackIntoWindow) {
  // p1's pending invocation at t=20 is itself the event that tentatively
  // closes {A}: nothing is in flight and every response is before 20.  The
  // next completed invocation is only at t=30, so offline the cut fails its
  // pending clause (20 < 30) and the history is ONE segment.  finalize()
  // must detect the invalid tentative cut and merge the segment back.
  RegisterModel model;
  const Trace trace = make_trace({
      done(0, reg::write(1), Value::unit(), 0, 10),  // A
      pend(1, reg::write(9), 20),                    // B (never responds)
      done(0, reg::read(), Value(1), 30, 40),        // C
  });
  const CheckResult got = streaming_check_trace(model, trace);
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.segments, 1u);  // the merge un-did the only tentative cut
  expect_matches_offline(model, trace, "pending-trigger merge");
}

TEST(StreamingChecker, PendingAfterFirstPostCutInvokeKeepsTheCut) {
  // Same shape, but the pending invocation (t=25) comes after the first
  // completed post-cut invocation (t=20): offline keeps the cut, so the
  // tentative cut validates and the pending op is searched in the final
  // window only.
  RegisterModel model;
  const Trace trace = make_trace({
      done(0, reg::write(1), Value::unit(), 0, 10),
      done(0, reg::read(), Value(1), 20, 30),
      pend(1, reg::write(9), 25),
  });
  auto [history, pending] = history_with_pending(trace);
  ASSERT_EQ(segment_history(history, pending).size(), 2u);
  const CheckResult got = streaming_check_trace(model, trace);
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.segments, 2u);
  expect_matches_offline(model, trace, "pending after cut");
}

TEST(StreamingChecker, EqualTimesAreConcurrentSoNoCut) {
  // response == next invocation is concurrent under the strict real-time
  // order; the online trigger (max_response < t) must not fire either.
  RegisterModel model;
  const Trace trace = make_trace({
      done(0, reg::write(1), Value::unit(), 0, 10),
      done(1, reg::read(), Value(0), 10, 20),
  });
  const CheckResult got = streaming_check_trace(model, trace);
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.segments, 1u);
  expect_matches_offline(model, trace, "equal times");
}

TEST(StreamingChecker, SequentialGapsBecomeConfirmedCuts) {
  RegisterModel model;
  const Trace trace = make_trace({
      done(0, reg::write(1), Value::unit(), 0, 10),
      done(1, reg::read(), Value(1), 20, 30),
      done(0, reg::read(), Value(1), 40, 50),
  });
  const CheckResult got = streaming_check_trace(model, trace);
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.segments, 3u);
  EXPECT_EQ(got.witness, (std::vector<std::size_t>{0, 1, 2}));
  expect_matches_offline(model, trace, "sequential");
}

TEST(StreamingChecker, TrivialTraces) {
  RegisterModel model;
  // Empty trace.
  const CheckResult empty = streaming_check_trace(model, Trace{});
  EXPECT_TRUE(empty.ok);
  EXPECT_TRUE(empty.early_exit);
  // Pendings only: omitting every one linearizes the empty history.
  const CheckResult only_pending = streaming_check_trace(
      model, make_trace({pend(0, reg::write(1), 5), pend(1, reg::read(), 7)}));
  EXPECT_TRUE(only_pending.ok);
  EXPECT_TRUE(only_pending.witness.empty());
  // Never-dispatched records (no invoke time) are invisible, as offline.
  Trace undispatched = make_trace({done(0, reg::write(1), Value::unit(), 0, 10)});
  OperationRecord ghost;
  ghost.token = 99;
  ghost.proc = 1;
  ghost.op = reg::read();
  undispatched.ops.push_back(ghost);
  const CheckResult got = streaming_check_trace(model, undispatched);
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.witness.size(), 1u);
}

TEST(StreamingChecker, MisuseIsLoud) {
  RegisterModel model;
  StreamingChecker checker(model);
  // A response with no matching in-flight invocation.
  OperationRecord rec = done(0, reg::read(), Value(0), 5, 9);
  rec.token = 3;
  EXPECT_THROW(checker.on_response(rec), std::logic_error);
  StreamingChecker other(model);
  (void)other.finalize();
  EXPECT_THROW(other.finalize(), std::logic_error);
}

// --- planted non-linearizable mutants ---------------------------------------

TEST(StreamingChecker, StaleReadFlipsBothCheckersIdentically) {
  RegisterModel model;
  // Reordered-response mutant: the read observes the overwritten value
  // after the write's response -- non-linearizable.
  const Trace bad = make_trace({
      done(0, reg::write(1), Value::unit(), 0, 10),
      done(1, reg::write(2), Value::unit(), 20, 30),
      done(0, reg::read(), Value(1), 40, 50),  // must return 2
  });
  const CheckResult off = offline(model, bad);
  const CheckResult got = streaming_check_trace(model, bad);
  ASSERT_FALSE(off.ok);
  EXPECT_FALSE(got.ok);
  EXPECT_FALSE(got.explanation.empty());
  // The failing segment is the last one here, which the streaming checker
  // hands to the offline search core itself -- text and all.
  EXPECT_EQ(off.explanation, got.explanation);
}

TEST(StreamingChecker, DroppedEffectDetectedAcrossRetiredSegments) {
  // Dropped-retire mutant: the write whose effect a much later read
  // observes never happened (its return says it did, but we plant a read
  // seeing a value nobody wrote).  The mismatch is only detectable in a
  // retired segment, after several confirmed cuts.
  RegisterModel model;
  const Trace bad = make_trace({
      done(0, reg::write(1), Value::unit(), 0, 10),
      done(1, reg::read(), Value(7), 20, 30),  // 7 was never written
      done(0, reg::write(2), Value::unit(), 40, 50),
      done(1, reg::read(), Value(2), 60, 70),
  });
  const CheckResult off = offline(model, bad);
  const CheckResult got = streaming_check_trace(model, bad);
  ASSERT_FALSE(off.ok);
  EXPECT_FALSE(got.ok);
  EXPECT_GT(got.segments, 1u);
  // The failing segment is one process's read, threaded from one state:
  // the single-process replay sees the mismatch and hands the segment to
  // the enumeration, whose text and counters are the result (one search
  // node for the write's segment, one for the read's).
  EXPECT_EQ(got.explanation,
            "p1 read() returned 7 but state reg(1) determines 1");
  EXPECT_EQ(got.states_explored, 2u);
}

// --- state budget ------------------------------------------------------------

/// Wide-frontier trace: `width` pairwise-concurrent distinct enqueues plus a
/// dequeue of a value never enqueued -- forces exhaustive search.
Trace wide_frontier_trace(int width) {
  std::vector<OperationRecord> ops;
  for (int p = 0; p < width; ++p) {
    ops.push_back(done(static_cast<ProcessId>(p), queue_ops::enqueue(100 + p),
                       Value::unit(), 0, 1));
  }
  ops.push_back(done(static_cast<ProcessId>(width), queue_ops::dequeue(),
                     Value(999), 2, 3));
  return make_trace(std::move(ops));
}

TEST(StreamingChecker, StateBudgetTrips) {
  QueueModel model;
  CheckOptions so;
  so.limits.max_states = 50;
  try {
    streaming_check_trace(model, wide_frontier_trace(6), so);
    FAIL() << "expected the state budget to trip";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("state budget"), std::string::npos) << what;
    EXPECT_NE(what.find("max_states=50"), std::string::npos) << what;
  }
}

TEST(StreamingChecker, WideFrontierVerdictMatchesOffline) {
  QueueModel model;
  expect_matches_offline(model, wide_frontier_trace(5), "wide frontier");
}

// --- differential fuzz -------------------------------------------------------

/// Random trace with quiescent gaps (so cuts trigger), perturbed returns
/// (so some traces are non-linearizable), operations straddling would-be
/// window boundaries, optional pending invocations, and optionally shuffled
/// record order (trace order need not be invoke order).
Trace random_trace(const ObjectModel& model, const std::vector<Operation>& pool,
                   int n_procs, int n_ops, Rng& rng, bool allow_pending) {
  std::vector<OperationRecord> ops;
  std::vector<Tick> proc_clock(static_cast<std::size_t>(n_procs), 0);
  auto global = model.initial_state();
  for (int k = 0; k < n_ops; ++k) {
    if (k > 0 && rng.chance(0.3)) {
      // Quiescent gap: advance every process past the latest response.
      Tick latest = 0;
      for (Tick t : proc_clock) latest = std::max(latest, t);
      for (Tick& t : proc_clock) t = latest + 2;
    }
    const auto p = static_cast<std::size_t>(rng.uniform(0, n_procs - 1));
    const Operation& op = pool[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const Tick invoke = proc_clock[p] + rng.uniform(0, 3);
    const Tick response = invoke + rng.uniform(1, 6);
    proc_clock[p] = response + (rng.chance(0.5) ? 0 : 1);
    Value ret = global->apply(op);
    if (rng.chance(0.2)) ret = Value(rng.uniform(0, 3));
    ops.push_back(done(static_cast<ProcessId>(p), op, std::move(ret), invoke,
                       response));
  }
  if (allow_pending) {
    int pendings = 0;
    for (int p = 0; p < n_procs && pendings < 2; ++p) {
      if (!rng.chance(0.4)) continue;
      const Operation& op = pool[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const Tick invoke =
          proc_clock[static_cast<std::size_t>(p)] + rng.uniform(0, 4);
      ops.push_back(pend(static_cast<ProcessId>(p), op, invoke));
      ++pendings;
    }
  }
  if (rng.chance(0.5)) {
    // Trace order is token order, not invoke order; shuffle to prove the
    // checker only relies on the former.
    for (std::size_t i = ops.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(i) - 1));
      std::swap(ops[i - 1], ops[j]);
    }
  }
  return make_trace(std::move(ops));
}

class StreamingCheckerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StreamingCheckerFuzz, RegisterTracesMatchOffline) {
  auto model = std::make_shared<RegisterModel>();
  std::vector<Operation> pool{reg::read(), reg::write(1), reg::write(2),
                              reg::rmw(3), reg::increment(1)};
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  for (int iter = 0; iter < 40; ++iter) {
    const Trace trace =
        random_trace(*model, pool, 3, 9, rng, /*allow_pending=*/iter % 2 == 1);
    expect_matches_offline(*model, trace, "register fuzz");
  }
}

TEST_P(StreamingCheckerFuzz, QueueTracesMatchOffline) {
  auto model = std::make_shared<QueueModel>();
  std::vector<Operation> pool{queue_ops::enqueue(1), queue_ops::enqueue(2),
                              queue_ops::dequeue(), queue_ops::peek()};
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 13);
  for (int iter = 0; iter < 40; ++iter) {
    const Trace trace =
        random_trace(*model, pool, 3, 9, rng, /*allow_pending=*/iter % 2 == 0);
    expect_matches_offline(*model, trace, "queue fuzz");
  }
}

TEST_P(StreamingCheckerFuzz, MutatedCleanTracesFlipIdentically) {
  // Take clean (unperturbed-return) traces, verify both checkers accept,
  // then flip one completed return and verify both reject.
  auto model = std::make_shared<RegisterModel>();
  std::vector<Operation> pool{reg::read(), reg::write(1), reg::write(2),
                              reg::increment(1)};
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 7);
  for (int iter = 0; iter < 12; ++iter) {
    // Sequential per-process clocks with gaps; returns from a global replay
    // in invoke order are linearizable by construction when no two ops
    // overlap, so keep one process: program order is the linearization.
    std::vector<OperationRecord> ops;
    auto state = model->initial_state();
    Tick t = 0;
    for (int k = 0; k < 6; ++k) {
      const Operation& op = pool[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const Tick invoke = t + rng.uniform(0, 2);
      const Tick response = invoke + rng.uniform(1, 4);
      t = response + rng.uniform(1, 3);  // strictly sequential: cuts galore
      ops.push_back(done(static_cast<ProcessId>(k % 2), op, state->apply(op),
                         invoke, response));
    }
    Trace clean = make_trace(std::move(ops));
    ASSERT_TRUE(offline(*model, clean).ok);
    ASSERT_TRUE(streaming_check_trace(*model, clean).ok);
    // Mutate one return to a value the replay cannot produce there.
    const auto victim = static_cast<std::size_t>(rng.uniform(0, 5));
    clean.ops[victim].ret = Value(4242);
    const CheckResult off = offline(*model, clean);
    const CheckResult got = streaming_check_trace(*model, clean);
    EXPECT_FALSE(off.ok);
    EXPECT_EQ(off.ok, got.ok);
    EXPECT_FALSE(got.explanation.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingCheckerFuzz, ::testing::Range(0, 4));

// --- million-scale depth (witness chains, long segments) ---------------------

TEST(StreamingChecker, DeepSegmentChainsStitchIntoTheWitness) {
  // 300k strictly gapped operations over two processes: every op is its own
  // confirmed segment, so the streaming witness chain grows ~300k links,
  // all of which the final witness must stitch back together in order.
  RegisterModel model;
  constexpr int kOps = 300'000;
  std::vector<OperationRecord> ops;
  ops.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    const Tick invoke = static_cast<Tick>(i) * 10;
    if (i % 2 == 0) {
      ops.push_back(done(0, reg::write(i), Value::unit(), invoke, invoke + 5));
    } else {
      ops.push_back(done(1, reg::read(), Value(i - 1), invoke, invoke + 5));
    }
  }
  const Trace trace = make_trace(std::move(ops));

  const CheckResult off = offline(model, trace);
  ASSERT_TRUE(off.ok);

  const CheckResult got = streaming_check_trace(model, trace);
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(off.witness, got.witness);
  EXPECT_EQ(got.segments, static_cast<std::size_t>(kOps));
  // The whole point of streaming: resident state stays tiny while the
  // history (and its witness chain) grows without bound.
  EXPECT_LT(got.max_resident_states, 64u);
}

TEST(StreamingChecker, DeepConfirmedSegmentEnumeratesIteratively) {
  // One confirmed segment of 400,001 operations: p0's write spans p1's 200k
  // write/read pairs, and three gapped operations after it confirm the cut.
  // Enumerating the segment walks one search node per operation on a path,
  // so a recursive enumeration overflows the default thread stack here.
  RegisterModel model;
  constexpr int kPairs = 200'000;
  constexpr Tick kEnd = static_cast<Tick>(kPairs) * 10 + 10;
  std::vector<OperationRecord> ops;
  ops.reserve(2 * kPairs + 4);
  ops.push_back(done(0, reg::write(-1), Value::unit(), 0, kEnd));
  for (int i = 0; i < kPairs; ++i) {
    const Tick t = static_cast<Tick>(i) * 10 + 1;
    ops.push_back(done(1, reg::write(i), Value::unit(), t, t + 3));
    ops.push_back(done(1, reg::read(), Value(i), t + 5, t + 8));
  }
  ops.push_back(done(1, reg::read(), Value(kPairs - 1), kEnd + 10, kEnd + 15));
  ops.push_back(done(0, reg::read(), Value(kPairs - 1), kEnd + 20, kEnd + 25));
  ops.push_back(done(1, reg::read(), Value(kPairs - 1), kEnd + 30, kEnd + 35));
  const Trace trace = make_trace(std::move(ops));

  const CheckResult off = offline(model, trace);
  ASSERT_TRUE(off.ok);
  const CheckResult got = streaming_check_trace(model, trace);
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(off.witness, got.witness);
  EXPECT_EQ(got.segments, 4u);
}

// --- live tap on real simulator runs ----------------------------------------

SystemTiming live_timing() { return SystemTiming{1000, 400, 300}; }

struct LiveRun {
  std::string serialized;  ///< trace bytes (for the observation-only check)
  CheckResult live;        ///< the attached checker's verdict
  CheckResult replay;      ///< streaming_check_trace over the final trace
  CheckResult off;         ///< offline serial verdict
  std::size_t ops_seen = 0;
  std::size_t max_window = 0;
};

LiveRun run_heavy_checked(bool faulted, bool attach) {
  SystemOptions o;
  o.n = 4;
  o.timing = live_timing();
  o.x = 0;
  HeavyTrafficOptions w;
  w.clients = 4;
  w.total_ops = 300;
  w.min_gap = 4 * live_timing().d;
  w.jitter = 137;
  w.batch = 64;
  if (faulted) {
    HardenedParams hardened;
    hardened.spike_margin = 300;
    FaultConfig faults;
    faults.dup_p = 0.08;
    faults.spike_p = 0.08;
    faults.spike_max = 300;
    faults.seed = 0xfa17u;
    o.faults = make_fault_policy(faults);
    o.hardened = hardened;
    w.min_gap = hardened.effective_d(live_timing()) + live_timing().eps + 1000;
  }
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, o);
  HeavyTrafficWorkload workload(system.sim(), w);
  StreamingChecker checker(*model);
  if (attach) checker.attach(system.sim());
  system.sim().start();
  workload.arm();
  EXPECT_TRUE(system.sim().run());
  LiveRun out;
  out.serialized = trace_to_string(system.sim().trace());
  if (attach) {
    out.live = checker.finalize();
    out.ops_seen = checker.ops_seen();
    out.max_window = checker.max_window_ops();
  }
  out.replay = streaming_check_trace(*model, system.sim().trace());
  out.off = offline(*model, system.sim().trace());
  return out;
}

class StreamingCheckerLive : public ::testing::TestWithParam<bool> {};

TEST_P(StreamingCheckerLive, LiveTapMatchesReplayAndOffline) {
  const bool faulted = GetParam();
  const LiveRun run = run_heavy_checked(faulted, /*attach=*/true);
  ASSERT_TRUE(run.off.ok);
  // Live tap == replay == offline: verdict and witness.
  EXPECT_EQ(run.live.ok, run.off.ok);
  EXPECT_EQ(run.live.witness, run.off.witness);
  EXPECT_EQ(run.live.ok, run.replay.ok);
  EXPECT_EQ(run.live.witness, run.replay.witness);
  EXPECT_EQ(run.live.segments, run.replay.segments);
  EXPECT_EQ(run.ops_seen, 300u);
  // The open-loop gap sits above the response bound, so the run has many
  // quiescent cuts and the resident window stays far below the history.
  EXPECT_GT(run.live.segments, 10u);
  EXPECT_LT(run.max_window, 300u / 2);
  EXPECT_LT(run.live.max_resident_states, run.off.max_resident_states + 300);
}

TEST_P(StreamingCheckerLive, AttachingTheTapNeverChangesTheTrace) {
  const bool faulted = GetParam();
  const LiveRun tapped = run_heavy_checked(faulted, /*attach=*/true);
  const LiveRun bare = run_heavy_checked(faulted, /*attach=*/false);
  EXPECT_EQ(tapped.serialized, bare.serialized);
}

INSTANTIATE_TEST_SUITE_P(CleanAndFaulted, StreamingCheckerLive,
                         ::testing::Values(false, true));

// --- pinned outputs ------------------------------------------------------------

/// FNV-1a over the witness indices: one number standing for the whole
/// linearization.
std::uint64_t witness_hash(const std::vector<std::size_t>& witness) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i : witness) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<std::uint64_t>(i) >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// A live heavy-traffic run with the checker attached inline.  `eager_aop`
/// plants stale reads: accessors answer before a concurrent write's
/// broadcast can land.
CheckResult pinned_live_run(std::size_t ops, bool eager_aop) {
  SystemOptions o;
  o.n = 4;
  o.timing = live_timing();
  o.x = 0;
  if (eager_aop) {
    o.algorithm_delays =
        AlgorithmDelays::eager_aop(o.timing, 0, o.timing.d - o.timing.u);
  }
  HeavyTrafficOptions w;
  w.clients = 4;
  w.total_ops = ops;
  w.min_gap = 4 * live_timing().d;
  w.jitter = 997;
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, o);
  HeavyTrafficWorkload workload(system.sim(), w);
  StreamingChecker checker(*model);
  checker.attach(system.sim());
  system.sim().start();
  workload.arm();
  EXPECT_TRUE(system.sim().run());
  return checker.finalize();
}

struct Pinned {
  bool ok;
  std::uint64_t witness;
  const char* explanation;
  std::size_t states_explored;
  std::size_t memo_hits;
  std::size_t max_resident_states;
  std::size_t segments;
};

void expect_pinned(const CheckResult& got, const Pinned& want,
                   const char* label) {
  EXPECT_EQ(got.ok, want.ok) << label;
  EXPECT_EQ(witness_hash(got.witness), want.witness)
      << label << ": witness hash 0x" << std::hex
      << witness_hash(got.witness);
  EXPECT_EQ(got.explanation, want.explanation) << label;
  EXPECT_EQ(got.states_explored, want.states_explored) << label;
  EXPECT_EQ(got.memo_hits, want.memo_hits) << label;
  EXPECT_EQ(got.max_resident_states, want.max_resident_states) << label;
  EXPECT_EQ(got.segments, want.segments) << label;
}

// The streaming checker's whole output pinned on three inputs, so an
// engine rewrite is held to byte-identical verdicts, witnesses,
// explanations and counters (the pattern of test_golden_hashes).  A change
// that moves one of these on purpose updates the constant and says why.
TEST(StreamingChecker, ResultCountersPinned) {
  expect_pinned(pinned_live_run(20'000, /*eager_aop=*/false),
                Pinned{true, 0x553a519b9a13f24full, "", 32420, 3850, 35, 11169},
                "clean 20k live run");
  QueueModel queue;
  expect_pinned(streaming_check_trace(queue, wide_frontier_trace(5)),
                Pinned{false, 0x14650fb0739d0383ull,
                       "p5 dequeue() returned 999 but state "
                       "queue[100,101,102,103,104] determines 100",
                       326, 0, 333, 2},
                "wide frontier");
  expect_pinned(pinned_live_run(2'000, /*eager_aop=*/true),
                Pinned{false, 0x14650fb0739d0383ull,
                       "p2 read() returned 8 but state reg(9) determines 9",
                       80, 3, 11, 1490},
                "stale-read mutant");
}

// --- per-shard streaming checks during the PDES drain ------------------------

ShardOptions shard_options() {
  ShardOptions o;
  o.shards = 3;
  o.replicas = 4;
  o.timing = live_timing();
  o.total_ops = 48;
  o.sync_epochs = 3;
  o.seed = 0x57e4'0001ULL;
  return o;
}

TEST(StreamingChecker, ShardedRunChecksInlineWithoutPerturbingTraces) {
  ShardOptions off_opts = shard_options();
  ShardOptions on_opts = shard_options();
  on_opts.streaming_check = true;
  ShardedSimulation bare(off_opts);
  const ShardRunReport unchecked = bare.run(2);
  for (const int jobs : {1, 2}) {
    ShardedSimulation sim(on_opts);
    const ShardRunReport report = sim.run(jobs);
    ASSERT_EQ(report.shards.size(), unchecked.shards.size());
    EXPECT_EQ(report.checked, static_cast<int>(report.shards.size()));
    EXPECT_EQ(report.check_failures, 0);
    for (std::size_t s = 0; s < report.shards.size(); ++s) {
      const ShardResult& r = report.shards[s];
      // Observation only: checked traces are byte-identical to unchecked.
      EXPECT_EQ(r.trace_hash, unchecked.shards[s].trace_hash)
          << "shard " << s << " jobs " << jobs;
      ASSERT_TRUE(r.checked) << "shard " << s;
      EXPECT_TRUE(r.check_error.empty()) << r.check_error;
      // The inline verdict agrees with the offline checker on the trace,
      // and the online cut count with the offline segmentation.
      const Trace& trace = sim.trace(static_cast<int>(s));
      const CheckResult ref = offline(sim.model(), trace);
      EXPECT_EQ(r.check_ok, ref.ok) << "shard " << s;
      auto [history, pending] = history_with_pending(trace);
      EXPECT_EQ(r.check_segments, segment_history(history, pending).size())
          << "shard " << s;
      EXPECT_GT(r.check_max_resident, 0u);
      EXPECT_GT(r.check_max_window, 0u);
    }
  }
}

}  // namespace
}  // namespace linbound
