// The sharded runtime's determinism contract (src/shard/shard.h): for
// every shard, the parallel run's trace is byte-identical -- hash_trace
// equal -- to running that shard alone through the same window protocol,
// at any --jobs count, across clean, faulted and churned configurations.
// Plus: watchdog attribution (a runaway shard aborts alone), the planted
// cross-shard mutants (early beacon, extra operation) that the machinery
// must catch, the zipfian load apportionment, and the harness/checker
// layers over the same runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "checker/multi_check.h"
#include "core/workload.h"
#include "harness/shard_sweep.h"
#include "shard/shard.h"
#include "types/register_type.h"

namespace linbound {
namespace {

SystemTiming timing() { return SystemTiming{1000, 400, 300}; }

/// Small clean configuration: a few shards, a few dozen ops.
ShardOptions base_options(int shards, std::size_t total_ops = 60) {
  ShardOptions o;
  o.shards = shards;
  o.replicas = 4;
  o.timing = timing();
  o.total_ops = total_ops;
  o.sync_epochs = 3;
  o.seed = 0x7e57'0001ULL;
  return o;
}

ShardOptions faulted_options(int shards) {
  // Duplicates and delay spikes through the hardened link: the same mix
  // tests/test_heavy_traffic.cpp establishes as safe for open-loop runs.
  ShardOptions o = base_options(shards, 40);
  o.variant = ShardVariant::kHardened;
  o.faults.dup_p = 0.08;
  o.faults.spike_p = 0.08;
  o.faults.spike_max = 300;
  o.seed = 0x7e57'0002ULL;
  return o;
}

ShardOptions churned_options(int shards) {
  ShardOptions o = base_options(shards, 30);
  o.variant = ShardVariant::kRecoverable;
  o.faults.churn.mean_uptime = 120'000;
  o.faults.churn.mean_downtime = 30'000;
  o.faults.churn.start = 5'000;
  o.faults.churn.horizon = 400'000;
  o.seed = 0x7e57'0003ULL;
  return o;
}

std::vector<std::uint64_t> hashes_of(const ShardRunReport& report) {
  std::vector<std::uint64_t> out;
  for (const ShardResult& r : report.shards) out.push_back(r.trace_hash);
  return out;
}

/// The contract itself: every shard's parallel hash equals its solo
/// reference, at every jobs count.
void expect_identity(const ShardOptions& options) {
  ShardedSimulation reference(options);
  std::vector<std::uint64_t> solo;
  for (int s = 0; s < options.shards; ++s) {
    solo.push_back(reference.run_solo(s).trace_hash);
  }
  for (int jobs : {1, 2, 4}) {
    ShardedSimulation sim(options);
    const ShardRunReport report = sim.run(jobs);
    ASSERT_EQ(report.shards.size(), static_cast<std::size_t>(options.shards));
    EXPECT_EQ(hashes_of(report), solo)
        << "per-shard trace diverged from the single-threaded reference at "
           "--jobs "
        << jobs;
  }
}

TEST(Shard, CleanRunMatchesSoloReferencesAtAnyJobs) {
  expect_identity(base_options(5));
}

TEST(Shard, FaultedHardenedRunMatchesSoloReferences) {
  expect_identity(faulted_options(3));
}

TEST(Shard, ChurnedRecoverableRunMatchesSoloReferences) {
  expect_identity(churned_options(3));
}

TEST(Shard, DifferentialFuzzAcrossShardCountsAndConfigs) {
  // Random shard counts x jobs {1,2,4} x {clean, faulted, churned}: the
  // seeds vary per round so every round is a fresh workload, fault mix and
  // churn schedule.
  Rng fuzz(0xf022'd1ceULL);
  for (int round = 0; round < 3; ++round) {
    const int shards = static_cast<int>(fuzz.uniform(2, 6));
    for (int kind = 0; kind < 3; ++kind) {
      ShardOptions o = kind == 0   ? base_options(shards, 36)
                       : kind == 1 ? faulted_options(shards)
                                   : churned_options(shards);
      o.seed = fuzz.next_u64();
      o.zipf_s = kind == 1 ? 0.0 : 1.2;
      expect_identity(o);
    }
  }
}

TEST(Shard, RunsAreDeterministicAcrossRepeats) {
  const ShardOptions o = base_options(4);
  ShardedSimulation a(o), b(o);
  EXPECT_EQ(hashes_of(a.run(2)), hashes_of(b.run(2)));
}

TEST(Shard, CleanRunCompletesEverything) {
  ShardedSimulation sim(base_options(4, 48));
  const ShardRunReport report = sim.run(2);
  EXPECT_EQ(report.aborted, 0);
  std::size_t workload_ops = 0;
  for (int s = 0; s < 4; ++s) {
    const ShardResult& r = report.shards[static_cast<std::size_t>(s)];
    EXPECT_EQ(r.shard, s);
    EXPECT_EQ(r.status, RunStatus::kComplete);
    // Every shard's trace carries its workload share plus one received
    // beacon per epoch.
    EXPECT_EQ(r.ops, sim.loads()[static_cast<std::size_t>(s)] +
                         static_cast<std::size_t>(sim.options().sync_epochs));
    workload_ops += sim.loads()[static_cast<std::size_t>(s)];
  }
  EXPECT_EQ(workload_ops, sim.options().total_ops);
  EXPECT_EQ(report.beacons, static_cast<std::size_t>(
                                4 * sim.options().sync_epochs));
  EXPECT_GE(report.windows, 1u);
}

// --- watchdog attribution -------------------------------------------------

TEST(Shard, RunawayShardAbortsAloneWithAttribution) {
  ShardOptions o = base_options(4, 48);
  // Plant a budget shard 2 cannot finish under; the others keep theirs.
  o.shard_budget_override = {0, 0, 25, 0};
  ShardedSimulation sim(o);
  const ShardRunReport report = sim.run(2);
  EXPECT_EQ(report.aborted, 1);
  for (int s = 0; s < 4; ++s) {
    const ShardResult& r = report.shards[static_cast<std::size_t>(s)];
    EXPECT_EQ(r.status, s == 2 ? RunStatus::kAborted : RunStatus::kComplete)
        << "shard " << s;
  }
  // The aborted shard burned only its own budget: every healthy shard
  // still matches its solo reference, and so does the aborted shard (the
  // reference trips the same budget at the same event).
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(report.shards[static_cast<std::size_t>(s)].trace_hash,
              sim.run_solo(s).trace_hash)
        << "shard " << s;
  }
  EXPECT_LE(report.shards[2].events, 25u);
}

// --- planted mutants ------------------------------------------------------

TEST(Shard, EarlyBeaconMutantIsCaughtByLookaheadValidation) {
  ShardOptions o = base_options(3);
  o.mutant_early_epoch_shard = 1;
  ShardedSimulation sim(o);
  EXPECT_THROW(sim.run(2), std::logic_error);
  // The violation is in the schedule, not the parallelism: the solo
  // reference of the victim shard trips the same guard.
  EXPECT_THROW(ShardedSimulation(o).run_solo(1), std::logic_error);
}

TEST(Shard, ExtraOpMutantDivergesFromReference) {
  ShardOptions o = base_options(3);
  o.mutant_extra_op_shard = 1;
  ShardedSimulation sim(o);
  const ShardRunReport report = sim.run(2);
  // Only the planted shard diverges; its neighbors still match.
  EXPECT_NE(report.shards[1].trace_hash, sim.run_solo(1).trace_hash);
  EXPECT_EQ(report.shards[0].trace_hash, sim.run_solo(0).trace_hash);
  EXPECT_EQ(report.shards[2].trace_hash, sim.run_solo(2).trace_hash);
}

// --- configuration validation ---------------------------------------------

TEST(Shard, RejectsLossFaultsAndZeroLookahead) {
  ShardOptions drops = base_options(2);
  drops.faults.drop_p = 0.05;
  EXPECT_THROW(ShardedSimulation{drops}, std::invalid_argument);

  ShardOptions no_uncertainty = base_options(2);
  no_uncertainty.timing = SystemTiming{1000, 1000, 300};  // u == d
  EXPECT_THROW(ShardedSimulation{no_uncertainty}, std::invalid_argument);

  ShardOptions too_deep = base_options(2);
  too_deep.lookahead = timing().min_delay() + 1;
  EXPECT_THROW(ShardedSimulation{too_deep}, std::invalid_argument);
}

TEST(Shard, ChurnAutoPromotesToRecoverable) {
  ShardOptions o = churned_options(2);
  o.variant = ShardVariant::kStock;
  ShardedSimulation sim(o);
  EXPECT_EQ(sim.options().variant, ShardVariant::kRecoverable);
}

// --- zipfian apportionment ------------------------------------------------

TEST(Shard, ZipfianLoadsSumExactlyAndSkew) {
  const auto loads = zipfian_shard_loads(16, 10'000, 1.0, 0x2199);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::size_t{0}),
            10'000u);
  const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
  EXPECT_GT(*hi, 2 * std::max<std::size_t>(1, *lo))
      << "zipf s=1 over 16 shards must be visibly skewed";
  // s = 0 is uniform up to the largest-remainder +/-1.
  const auto uniform = zipfian_shard_loads(16, 10'000, 0.0, 0x2199);
  const auto [ulo, uhi] = std::minmax_element(uniform.begin(), uniform.end());
  EXPECT_LE(*uhi - *ulo, 1u);
  // Deterministic in the seed; the hot shard moves with it.
  EXPECT_EQ(loads, zipfian_shard_loads(16, 10'000, 1.0, 0x2199));
  EXPECT_NE(zipfian_shard_loads(16, 10'000, 1.0, 1),
            zipfian_shard_loads(16, 10'000, 1.0, 2));
}

// --- harness + checker layers ---------------------------------------------

TEST(Shard, SweepVerifiesIdentityChecksAndAggregates) {
  ShardSweepOptions opts;
  opts.shard = base_options(4, 48);
  opts.jobs = 2;
  const ShardSweepReport report = run_shard_sweep(opts);
  EXPECT_TRUE(report.identity_ok());
  EXPECT_TRUE(report.checks.all_ok);
  EXPECT_EQ(report.checks.first_failure(), -1);
  EXPECT_EQ(report.checks.total_pending, 0u);
  EXPECT_EQ(report.availability, 1.0);
  EXPECT_GT(report.latency.worst_for_class(OpClass::kPureAccessor), 0);
  EXPECT_FALSE(report.summary().empty());

  // The sweep report is byte-equal at any jobs value.
  ShardSweepOptions serial = opts;
  serial.jobs = 1;
  const ShardSweepReport again = run_shard_sweep(serial);
  EXPECT_EQ(hashes_of(again.run), hashes_of(report.run));
  EXPECT_EQ(again.reference_hashes, report.reference_hashes);
  EXPECT_EQ(again.summary(), report.summary());
}

TEST(Shard, SweepCatchesPlantedDivergence) {
  ShardSweepOptions opts;
  opts.shard = base_options(3);
  opts.shard.mutant_extra_op_shard = 2;
  opts.jobs = 2;
  opts.check = false;
  const ShardSweepReport report = run_shard_sweep(opts);
  EXPECT_FALSE(report.identity_ok());
  ASSERT_EQ(report.identity_failures.size(), 1u);
  EXPECT_EQ(report.identity_failures[0], 2);
}

TEST(Shard, MultiCheckFlagsANonLinearizableTrace) {
  // Splice one shard's trace into an impossible shape: two completed reads
  // returning values never written.  check_shards must flag exactly it.
  ShardedSimulation sim(base_options(3, 24));
  sim.run(1);
  Trace doctored = sim.trace(1);
  bool planted = false;
  for (auto& op : doctored.ops) {
    if (op.op.code == RegisterModel::kRead && op.response_time != kNoTime) {
      op.ret = Value{77};  // never written: the register domain is 0..9
      planted = true;
      break;
    }
  }
  ASSERT_TRUE(planted);
  std::vector<const Trace*> traces{&sim.trace(0), &doctored, &sim.trace(2)};
  const MultiCheckReport report = check_shards(sim.model(), traces, {});
  EXPECT_FALSE(report.all_ok);
  EXPECT_EQ(report.first_failure(), 1);
  EXPECT_TRUE(report.shards[0].result.ok);
  EXPECT_TRUE(report.shards[2].result.ok);
}

}  // namespace
}  // namespace linbound
