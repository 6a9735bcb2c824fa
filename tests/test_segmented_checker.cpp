// Quiescent-cut segmentation (segment_history, the reference the streaming
// checker's online cut rule is tested against) and the one WGL search core
// behind every offline entry point: differentially fuzzed against the
// brute-force oracle over random histories with quiescent gaps, pending
// invocations and non-linearizable mutants, with every witness replayed
// for legality; plus the shared state budget, the trivial fast paths, and
// the core's start-state / shared-memo interface the streaming checker
// uses for its final window.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "checker/brute_checker.h"
#include "checker/history.h"
#include "checker/lin_checker.h"
#include "common/rng.h"
#include "types/queue_type.h"
#include "types/register_type.h"

namespace linbound {
namespace {

// --- segment_history unit tests ---------------------------------------------

TEST(SegmentHistory, EmptyHistoryHasNoSegments) {
  EXPECT_TRUE(segment_history(History{}).empty());
}

TEST(SegmentHistory, FullyConcurrentHistoryIsOneSegment) {
  History h({{0, reg::write(1), Value::unit(), 0, 10},
             {1, reg::read(), Value(1), 5, 15}});
  const auto segments = segment_history(h);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].op_count, 2u);
}

TEST(SegmentHistory, GapsBecomeCuts) {
  // Two concurrent bursts separated by a quiescent gap.
  History h({{0, reg::write(1), Value::unit(), 0, 10},
             {1, reg::write(2), Value::unit(), 0, 10},
             {0, reg::read(), Value(2), 20, 30},
             {1, reg::read(), Value(2), 20, 30}});
  const auto segments = segment_history(h);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].op_count, 2u);
  EXPECT_EQ(segments[1].op_count, 2u);
  // Per-process ranges partition by_process order.
  for (int p = 0; p < h.process_count(); ++p) {
    EXPECT_EQ(segments[0].begin[static_cast<std::size_t>(p)], 0u);
    EXPECT_EQ(segments[0].end[static_cast<std::size_t>(p)],
              segments[1].begin[static_cast<std::size_t>(p)]);
    EXPECT_EQ(segments[1].end[static_cast<std::size_t>(p)],
              h.by_process(p).size());
  }
}

TEST(SegmentHistory, EqualTimesAreConcurrentSoNoCut) {
  // response == next invocation: concurrent under the strict real-time
  // order (see LinChecker.EqualTimesCountAsConcurrent), so no cut.
  History h({{0, reg::write(1), Value::unit(), 0, 10},
             {1, reg::read(), Value(0), 10, 20}});
  EXPECT_EQ(segment_history(h).size(), 1u);
}

TEST(SegmentHistory, PendingInvocationSuppressesLaterCuts) {
  History h({{0, reg::write(1), Value::unit(), 0, 10},
             {0, reg::read(), Value(1), 20, 30},
             {0, reg::read(), Value(1), 40, 50}});
  // Without pending: three sequential ops, three segments.
  EXPECT_EQ(segment_history(h).size(), 3u);
  // A pending invocation at t=25 never responds, so it is in flight at
  // every later point: only the cut before it survives.
  std::vector<PendingInvocation> pending{{1, reg::write(9), 25}};
  EXPECT_EQ(segment_history(h, pending).size(), 2u);
  // Pending from the very start: no cut anywhere.
  std::vector<PendingInvocation> early{{1, reg::write(9), 0}};
  EXPECT_EQ(segment_history(h, early).size(), 1u);
}

// --- differential fuzz -------------------------------------------------------

struct GeneratedHistory {
  History history;
  std::vector<PendingInvocation> pending;
};

/// Random history with quiescent gaps (so segmentation kicks in), perturbed
/// returns (so some histories are non-linearizable), and optionally pending
/// invocations appended after each process's completed operations.
GeneratedHistory random_segmented_history(const ObjectModel& model,
                                          const std::vector<Operation>& pool,
                                          int n_procs, int n_ops, Rng& rng,
                                          bool allow_pending) {
  std::vector<HistoryOp> ops;
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
    ops.push_back({static_cast<ProcessId>(p), op, ret, invoke, response});
  }
  GeneratedHistory out{History(std::move(ops)), {}};
  if (allow_pending) {
    for (int p = 0; p < n_procs && out.pending.size() < 2; ++p) {
      if (!rng.chance(0.4)) continue;
      const Operation& op = pool[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const Tick invoke =
          proc_clock[static_cast<std::size_t>(p)] + rng.uniform(0, 4);
      out.pending.push_back({static_cast<ProcessId>(p), op, invoke});
    }
  }
  return out;
}

/// Does `witness` (completed-op indices) extend to a legal sequential run
/// once some subset of `pending` is spliced in?  Each included pending
/// invocation goes at a position after every completed op that responds
/// before its invocation, with an unconstrained return -- the
/// Herlihy-Wing reading the checker implements.  Exhaustive over
/// placements and over the order of invocations sharing a slot, so only
/// for the tiny fuzz histories.
bool witness_replays(const ObjectModel& model, const History& h,
                     const std::vector<PendingInvocation>& pending,
                     const std::vector<std::size_t>& witness) {
  // Program and real-time order among the completed operations.
  for (std::size_t i = 0; i < witness.size(); ++i) {
    for (std::size_t j = i + 1; j < witness.size(); ++j) {
      if (h.ops()[witness[j]].response < h.ops()[witness[i]].invoke) {
        return false;
      }
    }
  }
  // slot[q]: -1 omits pending q; k inserts it just before witness[k].
  const std::size_t n = witness.size();
  std::vector<long> slot(pending.size(), -1);
  while (true) {
    bool placeable = true;
    for (std::size_t q = 0; q < pending.size() && placeable; ++q) {
      if (slot[q] < 0) continue;
      for (std::size_t k = static_cast<std::size_t>(slot[q]); k < n; ++k) {
        if (h.ops()[witness[k]].response < pending[q].invoke) {
          placeable = false;
          break;
        }
      }
    }
    std::vector<std::size_t> order(pending.size());
    std::iota(order.begin(), order.end(), 0);
    do {
      if (!placeable) break;
      auto state = model.initial_state();
      bool legal = true;
      for (std::size_t k = 0; k <= n && legal; ++k) {
        for (std::size_t q : order) {
          if (slot[q] == static_cast<long>(k)) state->apply(pending[q].op);
        }
        if (k == n) break;
        const HistoryOp& op = h.ops()[witness[k]];
        legal = state->apply(op.op) == op.ret;
      }
      if (legal) return true;
    } while (std::next_permutation(order.begin(), order.end()));
    // Next placement (odometer over -1..n per pending invocation).
    std::size_t q = 0;
    while (q < slot.size() && slot[q] == static_cast<long>(n)) slot[q++] = -1;
    if (q == slot.size()) return false;
    ++slot[q];
  }
}

void fuzz_against_brute(const std::shared_ptr<ObjectModel>& model,
                        const std::vector<Operation>& pool,
                        std::uint64_t seed, bool allow_pending) {
  Rng rng(seed);
  // Sizes the brute-force oracle enumerates quickly: it walks every
  // permutation of the completed ops plus each included pending one.
  const int n_ops = allow_pending ? 6 : 7;
  for (int iter = 0; iter < 150; ++iter) {
    GeneratedHistory g = random_segmented_history(*model, pool, 3, n_ops, rng,
                                                  allow_pending);
    const CheckResult got =
        check_linearizable_with_pending(*model, g.history, g.pending);
    const bool brute =
        g.pending.empty()
            ? brute_force_linearizable(*model, g.history)
            : brute_force_linearizable_with_pending(*model, g.history,
                                                    g.pending);
    EXPECT_EQ(brute, got.ok) << g.history.to_string(*model);
    // Every overload is the same search: identical output.
    CheckOptions options;
    options.jobs = 4;  // offline checks ignore it
    const CheckResult via_options = check_linearizable_with_pending(
        *model, g.history, g.pending, options);
    EXPECT_EQ(got.ok, via_options.ok);
    EXPECT_EQ(got.witness, via_options.witness);
    EXPECT_EQ(got.explanation, via_options.explanation);
    if (got.ok) {
      ASSERT_EQ(got.witness.size(), g.history.size());
      std::vector<std::size_t> sorted = got.witness;
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);
      EXPECT_TRUE(witness_replays(*model, g.history, g.pending, got.witness))
          << g.history.to_string(*model);
    } else {
      EXPECT_FALSE(got.explanation.empty()) << g.history.to_string(*model);
    }
  }
}

class SearchCoreFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SearchCoreFuzz, RegisterHistoriesMatchBrute) {
  auto model = std::make_shared<RegisterModel>();
  std::vector<Operation> pool{reg::read(), reg::write(1), reg::write(2),
                              reg::rmw(3), reg::increment(1)};
  const auto seed = static_cast<std::uint64_t>(GetParam());
  fuzz_against_brute(model, pool, seed * 7919 + 3, /*allow_pending=*/false);
  fuzz_against_brute(model, pool, seed * 15485863 + 7, /*allow_pending=*/true);
}

TEST_P(SearchCoreFuzz, QueueHistoriesMatchBrute) {
  auto model = std::make_shared<QueueModel>();
  std::vector<Operation> pool{queue_ops::enqueue(1), queue_ops::enqueue(2),
                              queue_ops::dequeue(), queue_ops::peek()};
  const auto seed = static_cast<std::uint64_t>(GetParam());
  fuzz_against_brute(model, pool, seed * 104729 + 13, /*allow_pending=*/false);
  fuzz_against_brute(model, pool, seed * 1299709 + 17, /*allow_pending=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchCoreFuzz, ::testing::Range(0, 4));

// --- budget, fast paths, start states ----------------------------------------

/// `width` pairwise-concurrent distinct enqueues (every interleaving is a
/// distinct state) plus a dequeue of a value never enqueued -- forces
/// exhaustive search.
History wide_frontier_history(int width) {
  std::vector<HistoryOp> ops;
  for (int p = 0; p < width; ++p) {
    ops.push_back({static_cast<ProcessId>(p), queue_ops::enqueue(100 + p),
                   Value::unit(), 0, 1});
  }
  ops.push_back({static_cast<ProcessId>(width), queue_ops::dequeue(),
                 Value(999), 2, 3});
  return History(std::move(ops));
}

TEST(SearchCore, StateBudgetIsOneCounterPerCall) {
  QueueModel model;
  const History h = wide_frontier_history(6);
  CheckLimits limits;
  limits.max_states = 50;
  try {
    check_linearizable(model, h, limits);
    FAIL() << "expected the state budget to trip";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("state budget"), std::string::npos) << what;
    EXPECT_NE(what.find("max_states=50"), std::string::npos) << what;
    EXPECT_NE(what.find("segment"), std::string::npos) << what;
  }
}

TEST(SearchCore, TrivialFastPaths) {
  RegisterModel model;
  // Empty history.
  const CheckResult empty = check_linearizable(model, History{});
  EXPECT_TRUE(empty.ok);
  EXPECT_TRUE(empty.early_exit);
  // Single process: replay fast path.
  History solo({{0, reg::write(1), Value::unit(), 0, 10},
                {0, reg::read(), Value(1), 20, 30}});
  const CheckResult fast = check_linearizable(model, solo);
  EXPECT_TRUE(fast.ok);
  EXPECT_EQ(fast.witness, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(fast.early_exit);
  // Only pending invocations, no completed ops: omitting them all works.
  std::vector<PendingInvocation> pending{{0, reg::write(1), 5}};
  const CheckResult pend =
      check_linearizable_with_pending(model, History{}, pending);
  EXPECT_TRUE(pend.ok);
  EXPECT_TRUE(pend.witness.empty());
}

TEST(SearchCore, FastPathsStartFromTheGivenState) {
  RegisterModel model;
  Snapshot five = Snapshot::initial(model);
  five.apply(reg::write(5));
  const std::vector<PendingInvocation> none;
  // Single process: the replay must start from `five`, not initial_state().
  const History solo({{0, reg::read(), Value(5), 0, 10},
                      {0, reg::write(6), Value::unit(), 20, 30},
                      {0, reg::read(), Value(6), 40, 50}});
  {
    detail::WglSearch search(model, CheckLimits{});
    search.load(solo, none, true, detail::SearchScope{0, 1, solo.size()});
    CheckResult r;
    EXPECT_TRUE(search.run(five, r));
    EXPECT_TRUE(r.early_exit);
    EXPECT_EQ(r.witness, (std::vector<std::size_t>{0, 1, 2}));
    CheckResult from_initial;
    EXPECT_FALSE(search.run(Snapshot::initial(model), from_initial));
    EXPECT_NE(from_initial.explanation.find("returned 5"), std::string::npos)
        << from_initial.explanation;
  }
  // Two processes: the full search starts from `five` as well.
  const History pair({{0, reg::read(), Value(5), 0, 10},
                      {1, reg::read(), Value(5), 5, 15}});
  detail::WglSearch search(model, CheckLimits{});
  search.load(pair, none, true, detail::SearchScope{0, 1, pair.size()});
  CheckResult r;
  EXPECT_TRUE(search.run(five, r));
  EXPECT_FALSE(r.early_exit);
  EXPECT_EQ(r.witness, (std::vector<std::size_t>{0, 1}));
  // A success leaves its open path in the memo; those nodes are not dead,
  // so the same start succeeds again.
  CheckResult again;
  EXPECT_TRUE(search.run(five, again));
  EXPECT_EQ(again.witness, r.witness);
  CheckResult from_initial;
  EXPECT_FALSE(search.run(Snapshot::initial(model), from_initial));
}

TEST(SearchCore, DeadMemoPersistsAcrossStarts) {
  QueueModel model;
  const History h = wide_frontier_history(4);
  const std::vector<PendingInvocation> none;
  detail::WglSearch search(model, CheckLimits{});
  search.load(h, none, true, detail::SearchScope{0, 1, h.size()});
  const Snapshot start = Snapshot::initial(model);
  CheckResult acc;
  EXPECT_FALSE(search.run(start, acc));
  const std::size_t states = acc.states_explored;
  const std::size_t dead = search.dead_states();
  EXPECT_EQ(check_linearizable(model, h).states_explored, states);
  // The second start is the same node: one memo hit, nothing re-explored,
  // and the budget counter carries over in the accumulator.
  EXPECT_FALSE(search.run(start, acc));
  EXPECT_EQ(acc.states_explored, states);
  EXPECT_EQ(acc.memo_hits, 1u + check_linearizable(model, h).memo_hits);
  EXPECT_EQ(search.dead_states(), dead);
}


// --- pinned offline outputs ---------------------------------------------------

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

struct Pinned {
  bool ok;
  std::uint64_t witness;
  const char* explanation;
  std::size_t states_explored;
  std::size_t memo_hits;
  std::size_t max_resident_states;
  bool early_exit;
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
  EXPECT_EQ(got.early_exit, want.early_exit) << label;
}

// The offline entry points' whole output pinned on three inputs (the
// pattern of StreamingChecker.ResultCountersPinned), so a search-engine
// rewrite is held to byte-identical verdicts, witnesses, explanations and
// counters.  A change that moves one of these on purpose updates the
// constant and says why.
TEST(SearchCore, OfflineResultsPinned) {
  QueueModel queue;
  expect_pinned(check_linearizable(queue, wide_frontier_history(5)),
                Pinned{false, 0x14650fb0739d0383ull,
                       "p5 dequeue() returned 999 but state "
                       "queue[100,101,102,103,104] determines 100",
                       326, 0, 326, false},
                "wide frontier");
  // Each process reads the other's write after its own, so no single
  // order of the four operations explains both reads.
  RegisterModel reg_model;
  const History crossed({{0, reg::write(1), Value::unit(), 0, 1},
                         {0, reg::read(), Value(2), 2, 3},
                         {1, reg::write(2), Value::unit(), 0, 1},
                         {1, reg::read(), Value(1), 2, 3}});
  expect_pinned(check_sequentially_consistent(reg_model, crossed),
                Pinned{false, 0x14650fb0739d0383ull,
                       "p0 read() returned 2 but state reg(1) determines 1",
                       7, 0, 7, false},
                "crossed reads");
  // Two crashed writers: the read of 3 needs the pending write(3), the
  // pending write(4) may be dropped.
  const History survivors({{0, reg::write(1), Value::unit(), 0, 5},
                           {1, reg::read(), Value(3), 10, 12},
                           {1, reg::write(5), Value::unit(), 13, 14},
                           {0, reg::read(), Value(5), 15, 16}});
  const std::vector<PendingInvocation> crashed{{2, reg::write(3), 2},
                                               {3, reg::write(4), 1}};
  expect_pinned(check_linearizable_with_pending(reg_model, survivors, crashed),
                Pinned{true, 0xaf6837ed061b4883ull,
                       "p1 read() returned 3 but state reg(1) determines 1",
                       12, 1, 6, false},
                "two pending writers");
}

}  // namespace
}  // namespace linbound
