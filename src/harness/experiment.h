// The experiment runner behind every table bench: sweep Algorithm 1 (or the
// centralized baseline) over adversarial delay policies, clock-offset
// patterns and seeds; check linearizability of every run; aggregate
// worst-case latencies.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checker/lin_checker.h"
#include "core/system.h"
#include "core/workload.h"
#include "harness/latency.h"

namespace linbound {

/// Produces the operation list for one client process in one run.
using WorkloadFactory =
    std::function<std::vector<Operation>(ProcessId pid, Rng& rng)>;

struct SweepOptions {
  int n = 4;
  SystemTiming timing;
  Tick x = 0;              ///< Algorithm 1's trade-off parameter
  int seeds = 8;           ///< randomized runs per (policy, offsets) cell
  Tick think_time = 0;     ///< client think time between operations
  std::uint64_t base_seed = 0x11bb0042d00dULL;
  /// Worker threads for the grid (common/parallel.h); every cell is an
  /// independent deterministic simulation and results are aggregated in
  /// canonical order, so any value produces byte-identical output.
  int jobs = 1;
  /// Checker configuration for every cell's history (only the state budget
  /// applies offline; any CheckOptions value yields identical verdicts).
  CheckOptions check;
};

struct SweepResult {
  int runs = 0;
  int linearizable_runs = 0;
  LatencyReport latency;
  std::vector<std::string> failures;  ///< descriptions of failing runs

  bool all_linearizable() const { return runs == linearizable_runs; }
};

/// Run Algorithm 1 across the adversary grid:
///   delay policies: all-d, all-(d-u), uniform random, extremal bimodal;
///   clock offsets: all-zero, alternating 0/eps, random within [0, eps].
/// Every run's history is checked for linearizability.
SweepResult run_replica_sweep(const std::shared_ptr<const ObjectModel>& model,
                              const WorkloadFactory& workload,
                              const SweepOptions& options);

/// Same grid, centralized baseline.
SweepResult run_centralized_sweep(const std::shared_ptr<const ObjectModel>& model,
                                  const WorkloadFactory& workload,
                                  const SweepOptions& options);

/// Same grid, sequencer-based total-order-broadcast baseline.
SweepResult run_tob_sweep(const std::shared_ptr<const ObjectModel>& model,
                          const WorkloadFactory& workload,
                          const SweepOptions& options);

}  // namespace linbound
