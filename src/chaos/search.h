// The chaos-search loop: a seeded, parallel sweep over fault configurations
// x seeds x workloads, hunting for runs the oracles reject.
//
// The grid is *covered by construction* -- every cell stays inside the
// guarantee of the variant it exercises (see chaos/chaos.h on gating), so a
// violation is a bug by definition, never an artifact of over-injection:
//
//   stock        fault-free cells only; the adversary is the delay schedule
//                and the clock offsets (both derived from the seed);
//   hardened     drop / duplicate / spike / partition / per-link / stall
//                cells sized so the reliable link can absorb them (partition
//                and downtime lengths within the retransmission budget,
//                spike margins configured in);
//   recoverable  churn cells with max_down=1 and downtime within budget,
//                optionally mixed with light message loss.
//   mode-switching  spike barrages / partitions / the combined degradation
//                storm -- weather that must trip the supervisor yet heal, so
//                the liveness oracle can demand completion through the
//                switches; the watchdog budget is scaled up because the era
//                machinery legitimately runs long under persistent spikes;
//   quorum       the heaviest cells (loss, spikes, partition, churn):
//                Paxos safety is unconditional.
//
// Every run doubles as its own determinism check (run_chaos executes each
// spec twice).  Findings come back with their recorded FaultScript, ready
// for the shrinker.  Execution rides ParallelSweepExecutor in wall-clock
// waves: tasks are independent deterministic simulations aggregated in
// canonical order, so at a fixed cutoff the result is byte-identical at any
// --jobs value; the time budget only decides how much of the (deterministic)
// task list gets run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/chaos.h"

namespace linbound {

/// Event budget of every grid spec (ten times this for mode switching).
/// Grid specs run their clients back to back (think time 0).
constexpr std::size_t kChaosSearchEventBudget = 300'000;

struct ChaosSearchOptions {
  /// Variants to sweep; empty means every variant.
  std::vector<ChaosVariant> variants;
  /// Planted bug; forces the matching variant (eager -> stock,
  /// narrow-waits -> hardened) and is stamped into every spec.
  ChaosMutant mutant = ChaosMutant::kNone;
  int n = 3;
  SystemTiming timing{1000, 400, 300};
  Tick x = 0;
  int seeds = 6;  ///< randomized runs per (variant, cell, workload)
  int ops_per_client = 6;
  std::uint64_t base_seed = 0xc4a0'55ee'dULL;
  std::int64_t wall_budget_ms = 0;  ///< per run; 0 disables
  /// Whole-search wall-clock budget in seconds; 0 runs the full grid once.
  /// The task list is deterministic; the budget only truncates it.
  double time_budget_s = 0;
  int jobs = 1;
  /// Stop collecting findings past this many (runs are still counted).
  int max_findings = 8;
};

struct ChaosFinding {
  ChaosRunSpec spec;
  ChaosRunResult result;
};

struct ChaosSearchResult {
  int runs = 0;        ///< specs executed (each spec runs twice internally)
  int violations = 0;  ///< verdicts != ok
  int reproducible = 0;
  int wall_trips = 0;  ///< wall-clock aborts (reported, never shrunk)
  bool truncated = false;  ///< the time budget cut the grid short
  std::vector<ChaosFinding> findings;  ///< reproducible, capped

  bool found_violation() const { return violations > 0; }
  std::string summary() const;
};

/// Build the covered grid for the options (exposed for tests: the grid is a
/// pure function of the options).
std::vector<ChaosRunSpec> chaos_search_grid(const ChaosSearchOptions& options);

ChaosSearchResult run_chaos_search(const ChaosSearchOptions& options);

}  // namespace linbound
