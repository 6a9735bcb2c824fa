// The experiment runner behind every table bench: sweep Algorithm 1 (or the
// centralized baseline) over adversarial delay policies, clock-offset
// patterns and seeds; check linearizability of every run; aggregate
// worst-case latencies.
//
// Also the one run builder behind the chaos engine (chaos/chaos.h) and every
// sweep (fault_sweep.h, churn_sweep.h, mode_sweep.h): a caller fills a
// RunSpec, simulate builds and runs the system it describes, and measure
// reads off what every caller judges (a caller that judges latencies
// absorbs them from the trace itself).  The sweeps fill their specs with
// grid_run_spec: per-run seeds from GridSeeds, client scripts from
// client_scripts (core/driver.h); the (cell, seed) grid runs through
// map_grid.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/driver.h"
#include "core/system.h"
#include "core/workload.h"
#include "fault/assumption_monitor.h"
#include "fault/fault_policy.h"
#include "harness/latency.h"

namespace linbound {

/// Which implementation the run exercises.
enum class ChaosVariant {
  kStock,        ///< plain Algorithm 1 (guarantee: fault-free model)
  kHardened,     ///< reliable-link variant (guarantee: link never gives up)
  kRecoverable,  ///< crash-recovery variant (guarantee: ditto, plus churn)
  /// Synchrony supervisor + live mode switching (src/degrade).  Guarantee:
  /// linearizable whenever concurrent crashes stay a minority; the
  /// degraded-mode oracle additionally demands *liveness* -- no stalls and
  /// no aborts -- whenever the storm heals (see judge in chaos.cpp).
  kModeSwitching,
  /// The asynchronous quorum backend alone (src/degrade/quorum_replica.h).
  /// Guarantee: unconditional linearizability (Paxos safety needs no
  /// timing), liveness whenever a majority stays up and crashes heal.
  kQuorum,
};

/// The variants built on the quorum backend (degrade/degrade_system.h).
inline bool degradation_variant(ChaosVariant v) {
  return v == ChaosVariant::kModeSwitching || v == ChaosVariant::kQuorum;
}

/// Everything one run of a shared-object system depends on.
struct RunSpec {
  std::shared_ptr<const ObjectModel> model;
  int n = 3;
  SystemTiming timing;
  Tick x = 0;
  ChaosVariant variant = ChaosVariant::kStock;
  /// Link parameters of the hardened and mode-switching variants (`link`)
  /// and link plus rejoin parameters of the recoverable one.  simulate sets
  /// link.spike_margin to faults.max_delay_boost(): the link must absorb the
  /// worst delay boost the faults inject.
  RecoverableParams reliable;
  /// Replaces Algorithm 1's waits (the planted mutants); Algorithm 1
  /// variants only.
  std::optional<AlgorithmDelays> algorithm_delays;
  std::shared_ptr<DelayPolicy> delays;
  std::vector<Tick> clock_offsets;  ///< empty: all zero
  /// The per-send fault policy (null: none) and the config it stands for;
  /// the config also supplies the churn schedule and the spike margin.
  std::shared_ptr<FaultPolicy> fault_policy;
  FaultConfig faults;
  std::vector<ClientScript> scripts;
  /// Whether the driver re-issues operations a crash cut (core/driver.h).
  bool reissue_cut_ops = true;
  /// Deterministic watchdog: the run is cut (kAborted) after exactly this
  /// many simulator events.
  std::size_t event_budget = 10'000'000;
  /// Wall-clock safety net in milliseconds; 0 disables.
  std::int64_t wall_budget_ms = 0;
};

/// A built system after simulate.  Owns it, so the trace stays readable
/// until the Simulation is destroyed.
struct Simulation {
  std::unique_ptr<ObjectSystem> system;
  /// The Algorithm 1 delays the run used; null for the degradation
  /// variants, which carry no fixed per-class bound.
  const AlgorithmDelays* algorithm_delays = nullptr;
  bool drained = false;
  bool wall_clock_tripped = false;
  int reissued = 0;  ///< cut operations the driver re-issued

  const Trace& trace() const { return system->sim().trace(); }
};

/// Build the spec's system, arm its driver, apply its churn and run it
/// through the watchdog loop.  Everything a run's trace depends on happens
/// here.
Simulation simulate(RunSpec spec);

/// What every caller reads off a finished run.
struct RunMeasure {
  /// kAborted when a watchdog cut the run, else kComplete or kStalled.
  RunStatus status = RunStatus::kComplete;
  /// Pending-aware: operations left pending are checked too.
  bool linearizable = true;
  std::string explanation;
  AssumptionReport report;
  /// Summed over the reliable-link replicas (0 for stock and quorum).
  std::int64_t link_give_ups = 0;
  std::int64_t retransmissions = 0;
  std::int64_t duplicates_suppressed = 0;
  int reissued = 0;

  // One tally of the trace's operations and fault events.
  std::int64_t invoked = 0;  ///< invocation attempts
  std::int64_t answered = 0;
  int crashes = 0;
  int downgrades = 0;
  int upgrades = 0;
  int max_concurrent_down = 0;  ///< most processes crashed at once
  int down_at_end = 0;
  /// Crashes that struck in synchronous mode with no downgrade afterwards:
  /// the one crash shape mode switching does not promise to absorb
  /// (pause-resume; see mode_switching_replica.h).
  int crashes_outside_degraded = 0;

  bool complete() const { return status == RunStatus::kComplete; }
};

RunMeasure measure(const Simulation& run);

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

/// The spec of one (cell, seed) run of a sweep grid: the seed's uniform
/// delays and client scripts, no clock offsets, the cell's faults.  The
/// caller sets anything else the run needs.
RunSpec grid_run_spec(std::shared_ptr<const ObjectModel> model, int n,
                      const SystemTiming& timing, Tick x,
                      const WorkloadFactory& workload, const GridSeeds& seeds,
                      int seed, const FaultConfig& faults,
                      ChaosVariant variant);

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
