// The multi-tenant harness: run a ShardedSimulation, verify the per-shard
// determinism contract against single-threaded references, check every
// shard's linearizability, and aggregate latency/availability statistics in
// canonical shard order.
//
// This is the sharded sibling of run_fault_sweep / run_churn_sweep: one
// deterministic configuration in, one deterministic report out, with every
// aggregate byte-identical at any --jobs value (tests/test_shard.cpp and
// bench/bench_shard.cpp hold that line).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker/multi_check.h"
#include "harness/latency.h"
#include "shard/shard.h"

namespace linbound {

struct ShardSweepOptions {
  ShardOptions shard;
  /// Worker threads for the run, the references and the checks.
  int jobs = 1;
  /// Recompute every shard single-threaded (run_solo) and compare hashes.
  /// The differential heart of the harness; disable only for pure
  /// throughput measurements (bench_shard measures with and without).
  bool verify_identity = true;
  /// Check per-shard linearizability (skipped for pure perf runs).
  bool check = true;
  CheckOptions check_options;
};

struct ShardSweepReport {
  ShardRunReport run;                 ///< per-shard outcomes, canonical order
  std::vector<std::uint64_t> reference_hashes;  ///< empty if !verify_identity
  /// Shards whose parallel hash differs from the single-threaded
  /// reference; empty = contract held.
  std::vector<int> identity_failures;
  MultiCheckReport checks;            ///< empty if !check
  LatencyReport latency;              ///< merged over shards in shard order
  /// Fraction of shards that ended kComplete (availability under faults,
  /// budget aborts included in the denominator).
  double availability = 1.0;

  bool identity_ok() const { return identity_failures.empty(); }
  std::string summary() const;
};

ShardSweepReport run_shard_sweep(const ShardSweepOptions& options);

}  // namespace linbound
