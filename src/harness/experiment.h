// The experiment runner behind every table bench: sweep Algorithm 1 (or the
// centralized baseline) over adversarial delay policies, clock-offset
// patterns and seeds; check linearizability of every run; aggregate
// worst-case latencies.
//
// Also the run recipe every sweep shares (fault_sweep.h, churn_sweep.h,
// mode_sweep.h): client scripts come from client_scripts (core/driver.h),
// per-run seeds from GridSeeds, the (cell, seed) grid runs through map_grid
// and each run ends in check_run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/driver.h"
#include "core/system.h"
#include "core/workload.h"
#include "harness/latency.h"

namespace linbound {

/// Per-run seeds of a (cell, seed) grid.  Delay and workload randomness
/// depend only on the seed index, so every cell replays the same delays and
/// client scripts; only the cell's faults vary.
struct GridSeeds {
  std::uint64_t base;

  std::uint64_t delay(int seed) const {
    return base + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(seed);
  }
  std::uint64_t workload(int seed) const {
    return base ^ (0xd1b54a32d192ed03ULL +
                   0x2545f4914f6cdd1dULL * static_cast<std::uint64_t>(seed));
  }
  std::uint64_t faults(std::size_t cell, int seed) const {
    return base + 0xbf58476d1ce4e5b9ULL * (cell + 1) +
           static_cast<std::uint64_t>(seed);
  }
};

/// fn(cell, seed) for every pair of the grid on `jobs` workers.  Results come
/// back cell-major (index cell * seeds + seed), so aggregates built from them
/// in order are byte-identical at any jobs value.
template <typename R, typename Fn>
std::vector<R> map_grid(int jobs, std::size_t cells, int seeds, Fn&& fn) {
  const auto per_cell = static_cast<std::size_t>(seeds);
  return ParallelSweepExecutor(jobs).map<R>(
      cells * per_cell, [&](std::size_t i) {
        return fn(i / per_cell, static_cast<int>(i % per_cell));
      });
}

/// A finished run and its pending-aware linearizability verdict.
struct RunVerdict {
  RunStatus status = RunStatus::kComplete;
  bool linearizable = false;
  std::string explanation;
};

/// Run `system` to quiescence (or its event cap) and check the history,
/// operations left pending included.
RunVerdict check_run(ObjectSystem& system);

struct SweepOptions {
  int n = 4;
  SystemTiming timing;
  Tick x = 0;              ///< Algorithm 1's trade-off parameter
  int seeds = 8;           ///< randomized runs per (policy, offsets) cell
  std::uint64_t base_seed = 0x11bb0042d00dULL;
  /// Worker threads for the grid (common/parallel.h); every cell is an
  /// independent deterministic simulation and results are aggregated in
  /// canonical order, so any value produces byte-identical output.
  int jobs = 1;
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
