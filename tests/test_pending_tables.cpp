// The replica hot path's flat pending tables (common/flat_map.h and
// core/pending_tables.h),
// fuzzed against the std::map / std::set they replace: every operation's
// return value, every lookup and the full ascending iteration must agree
// after every step.  The key streams mimic the replica's -- mostly
// increasing with out-of-order stragglers -- so both the append fast path
// and the sorted-insert path run, and min-key pops outnumber other removals
// so the dead-prefix cursor crosses the 64-entry compaction threshold many
// times over.
#include "common/flat_map.h"
#include "core/pending_tables.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace linbound {
namespace {

using Map = FlatMap<std::int64_t, std::int64_t>;

/// Full-state comparison: size, emptiness, for_each order and values.
void expect_same(const Map& flat, const std::map<std::int64_t, std::int64_t>& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  ASSERT_EQ(flat.empty(), ref.empty());
  std::vector<std::pair<std::int64_t, std::int64_t>> seen;
  flat.for_each([&](std::int64_t k, std::int64_t v) { seen.emplace_back(k, v); });
  ASSERT_EQ(seen, (std::vector<std::pair<std::int64_t, std::int64_t>>(
                      ref.begin(), ref.end())));
}

/// One seeded run.  `straggler_p` is the share of keys inserted below the
/// current maximum; `pop_min_p` the share of steps that remove the
/// smallest key.  Every `drain_every` steps the table is drained by min
/// pops (or cleared) and reused.
void fuzz_map(std::uint64_t seed, int steps, double straggler_p,
              double pop_min_p, int drain_every) {
  Rng rng(seed);
  Map flat;
  std::map<std::int64_t, std::int64_t> ref;
  std::int64_t next_key = 0;
  for (int i = 0; i < steps; ++i) {
    if (drain_every > 0 && i % drain_every == drain_every - 1) {
      if (rng.chance(0.5)) {
        flat.clear();
        ref.clear();
      } else {
        while (!ref.empty()) {
          const std::int64_t k = ref.begin()->first;
          ASSERT_EQ(flat.extract(k), std::optional<std::int64_t>(ref.begin()->second));
          ref.erase(ref.begin());
        }
      }
      ASSERT_TRUE(flat.empty());
      // Reuse may restart below previously seen keys.
      next_key = rng.uniform(0, next_key + 1);
      continue;
    }
    const double r = rng.uniform01();
    if (r < pop_min_p && !ref.empty()) {
      const auto it = ref.begin();
      ASSERT_EQ(flat.extract(it->first), std::optional<std::int64_t>(it->second));
      ref.erase(it);
    } else if (r < pop_min_p + 0.08) {
      // Remove an arbitrary (possibly absent) key, via erase or extract.
      const std::int64_t k = rng.uniform(0, next_key + 2);
      const auto it = ref.find(k);
      if (rng.chance(0.5)) {
        ASSERT_EQ(flat.erase(k), it != ref.end());
      } else {
        const std::optional<std::int64_t> want =
            it == ref.end() ? std::nullopt : std::optional<std::int64_t>(it->second);
        ASSERT_EQ(flat.extract(k), want);
      }
      if (it != ref.end()) ref.erase(it);
    } else if (r < pop_min_p + 0.16 && next_key > 0) {
      // Assign over an existing-or-absent key below the maximum.
      const std::int64_t k = rng.uniform(0, next_key);
      const std::int64_t v = rng.uniform(0, 1'000'000);
      flat.insert_or_assign(k, v);
      ref.insert_or_assign(k, v);
    } else {
      std::int64_t k;
      if (rng.chance(straggler_p) && next_key > 0) {
        k = next_key - 1 - rng.uniform(0, 40);  // out-of-order straggler
      } else {
        next_key += 1 + rng.uniform(0, 2);
        k = next_key;
      }
      const std::int64_t v = rng.uniform(0, 1'000'000);
      flat.insert_or_assign(k, v);
      ref.insert_or_assign(k, v);
    }
    const std::int64_t probe = rng.uniform(-1, next_key + 2);
    const auto it = ref.find(probe);
    const std::int64_t* got = flat.find(probe);
    ASSERT_EQ(got != nullptr, it != ref.end()) << "probe " << probe;
    if (got) {
      ASSERT_EQ(*got, it->second);
    }
    if (i % 16 == 0) expect_same(flat, ref);
  }
  expect_same(flat, ref);
}

TEST(FlatMapFuzz, MostlyInOrderWithMinPops) {
  // The replica's steady state: appends, then removal from the front.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    fuzz_map(seed, 20'000, /*straggler_p=*/0.05, /*pop_min_p=*/0.40,
             /*drain_every=*/0);
  }
}

TEST(FlatMapFuzz, GrowsPastCompactionThreshold) {
  // Inserts outpace pops, so the table holds hundreds of live entries
  // while the dead prefix repeatedly reaches 64 and gets compacted.
  for (std::uint64_t seed : {11ull, 12ull}) {
    fuzz_map(seed, 30'000, /*straggler_p=*/0.10, /*pop_min_p=*/0.30,
             /*drain_every=*/0);
  }
}

TEST(FlatMapFuzz, HeavyOutOfOrderAndAssign) {
  for (std::uint64_t seed : {21ull, 22ull}) {
    fuzz_map(seed, 20'000, /*straggler_p=*/0.50, /*pop_min_p=*/0.20,
             /*drain_every=*/0);
  }
}

TEST(FlatMapFuzz, DrainAndReuse) {
  for (std::uint64_t seed : {31ull, 32ull, 33ull}) {
    fuzz_map(seed, 20'000, /*straggler_p=*/0.10, /*pop_min_p=*/0.35,
             /*drain_every=*/700);
  }
}

TEST(FlatMap, MinPopsCompactAndKeepOrder) {
  // Deterministic walk across the compaction threshold: 200 entries, pop
  // 150 from the front (the dead prefix passes 64 and half the table),
  // then check lookups and order on what is left.
  Map m;
  for (std::int64_t k = 0; k < 200; ++k) m.insert_or_assign(k, 10 * k);
  for (std::int64_t k = 0; k < 150; ++k) {
    ASSERT_EQ(m.extract(k), std::optional<std::int64_t>(10 * k));
  }
  EXPECT_EQ(m.size(), 50u);
  EXPECT_EQ(m.find(149), nullptr);
  ASSERT_NE(m.find(150), nullptr);
  EXPECT_EQ(*m.find(150), 1500);
  std::int64_t expect = 150;
  m.for_each([&](std::int64_t k, std::int64_t v) {
    EXPECT_EQ(k, expect);
    EXPECT_EQ(v, 10 * k);
    ++expect;
  });
  EXPECT_EQ(expect, 200);
  m.insert_or_assign(175, -1);  // assign in place after compaction
  EXPECT_EQ(*m.find(175), -1);
  m.insert_or_assign(100, 7);   // below every live key: front insert
  EXPECT_EQ(m.size(), 51u);
  EXPECT_EQ(m.extract(100), std::optional<std::int64_t>(7));
}

TEST(FlatMap, TimestampKeysIterateInTimestampOrder) {
  // The replica's actual key type: (clock, pid) with lexicographic order.
  FlatMap<Timestamp, int> m;
  std::map<Timestamp, int> ref;
  Rng rng(7);
  for (int i = 0; i < 2'000; ++i) {
    const Timestamp ts{rng.uniform(0, 300), static_cast<ProcessId>(rng.uniform(0, 4))};
    if (rng.chance(0.3)) {
      EXPECT_EQ(m.erase(ts), ref.erase(ts) > 0);
    } else {
      m.insert_or_assign(ts, i);
      ref.insert_or_assign(ts, i);
    }
  }
  std::vector<std::pair<Timestamp, int>> seen;
  m.for_each([&](const Timestamp& k, int v) { seen.emplace_back(k, v); });
  EXPECT_EQ(seen, (std::vector<std::pair<Timestamp, int>>(ref.begin(), ref.end())));
}

TEST(FlatSetFuzz, MatchesStdSet) {
  for (std::uint64_t seed : {41ull, 42ull}) {
    Rng rng(seed);
    FlatSet<std::int64_t> flat;
    std::set<std::int64_t> ref;
    std::int64_t top = 0;
    for (int i = 0; i < 20'000; ++i) {
      if (i % 5'000 == 4'999) {
        flat.clear();
        ref.clear();
        top = 0;
      }
      const std::int64_t k = rng.chance(0.7) ? (top += rng.uniform(0, 3))
                                             : rng.uniform(0, top + 1);
      ASSERT_EQ(flat.insert(k), ref.insert(k).second) << "key " << k;
      ASSERT_EQ(flat.size(), ref.size());
      ASSERT_EQ(flat.empty(), ref.empty());
    }
  }
}

TEST(SeqSetFuzz, MatchesStdSet) {
  // In-order arrivals advance the frontier; gaps park stragglers in the
  // sparse overflow until the frontier catches up and absorbs them.
  for (std::uint64_t seed : {51ull, 52ull, 53ull}) {
    Rng rng(seed);
    SeqSet flat;
    std::set<std::int64_t> ref;
    std::int64_t next = 0;
    for (int i = 0; i < 20'000; ++i) {
      if (i % 6'000 == 5'999) {
        flat.clear();
        ref.clear();
        next = 0;
      }
      std::int64_t seq;
      const double r = rng.uniform01();
      if (r < 0.6) {
        seq = next++;  // in order
      } else if (r < 0.8) {
        seq = next + rng.uniform(1, 20);  // ahead: a gap
      } else {
        seq = rng.uniform(0, next + 1);  // duplicate or straggler
      }
      ASSERT_EQ(flat.insert(seq), ref.insert(seq).second) << "seq " << seq;
    }
  }
}

TEST(LinkDedupFuzz, MatchesStdSetAcrossIncarnations) {
  // Multi-incarnation dedup: a frame from a sender's previous life must
  // still deduplicate within that life's sequence space, independently of
  // the current one.
  for (std::uint64_t seed : {61ull, 62ull}) {
    Rng rng(seed);
    LinkDedup flat;
    std::set<std::tuple<ProcessId, Tick, std::int64_t>> ref;
    std::vector<std::vector<std::int64_t>> next(4, std::vector<std::int64_t>(4, 0));
    for (int i = 0; i < 20'000; ++i) {
      if (i == 10'000) {
        flat.clear();
        ref.clear();
        for (auto& lives : next) lives.assign(4, 0);
      }
      const auto from = static_cast<ProcessId>(rng.uniform(0, 3));
      const auto life = static_cast<std::size_t>(rng.uniform(0, 3));
      const Tick incarnation = 1'000 * static_cast<Tick>(life);
      std::int64_t& top = next[static_cast<std::size_t>(from)][life];
      const std::int64_t seq =
          rng.chance(0.7) ? top++ : rng.uniform(0, top + 5);
      ASSERT_EQ(flat.insert(from, incarnation, seq),
                ref.insert({from, incarnation, seq}).second)
          << "from " << from << " life " << incarnation << " seq " << seq;
    }
  }
}

}  // namespace
}  // namespace linbound
