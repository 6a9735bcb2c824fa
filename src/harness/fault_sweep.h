// The robustness counterpart of harness/experiment.h: sweep Algorithm 1 --
// hardened (core/hardened_replica.h) and stock -- over a grid of fault
// intensities (message drop / duplication / delay-spike probabilities) and
// seeds, with three claims checked per cell:
//
//   1. the hardened variant stays linearizable in every run (its reliable
//      link restores the model assumptions the faults break);
//   2. the stock algorithm is *flagged* under message loss -- either
//      non-linearizable or stalled -- demonstrating the assumptions are
//      load-bearing, not decorative;
//   3. every failed run is attributed by the assumption monitor to a
//      concrete violated assumption (no unexplained failures).
//
// The price of hardening is quantified against a fault-free baseline:
// hardened waits are computed from the widened effective delivery bound
// d_eff, so worst-case latency degrades by exactly that factor.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "harness/experiment.h"
#include "harness/latency.h"

namespace linbound {

/// One fault intensity: probabilities applied to every send.
struct FaultCell {
  double drop_p = 0.0;
  double dup_p = 0.0;
  double spike_p = 0.0;
  Tick spike_max = 0;  ///< spikes are uniform in [1, spike_max]

  std::string label() const;
};

struct FaultSweepOptions {
  int n = 4;
  SystemTiming timing;
  Tick x = 0;           ///< Algorithm 1's trade-off parameter
  int seeds = 5;        ///< randomized runs per cell
  /// Grid of fault intensities; empty means default_fault_cells().
  std::vector<FaultCell> cells;
  /// Link-layer knobs for the hardened runs.  spike_margin is overridden
  /// per cell with the cell's max_delay_boost() (the link must absorb the
  /// worst injected boost).
  HardenedParams hardened;
  std::uint64_t base_seed = 0xfa017'5eedULL;
  /// Worker threads (common/parallel.h); every (cell, seed) run is an
  /// independent deterministic simulation, aggregated in canonical order,
  /// so any value produces byte-identical results.
  int jobs = 1;
};

/// The standard grid: drops alone, duplicates alone, spikes alone, and the
/// combined mix, each at two intensities.
std::vector<FaultCell> default_fault_cells(const SystemTiming& timing);

/// Per-(cell) aggregate over the seeds.
struct FaultCellResult {
  FaultCell cell;
  int runs = 0;  ///< seeds per variant

  int hardened_linearizable = 0;
  std::int64_t retransmissions = 0;
  std::int64_t duplicates_suppressed = 0;

  int unhardened_linearizable = 0;
  int unhardened_flagged = 0;  ///< non-linearizable or stalled

  int failures_attributed = 0;    ///< flagged runs the monitor explained
  int failures_unattributed = 0;  ///< flagged runs with no violation found

  LatencyReport hardened_latency;
  std::vector<std::string> notes;  ///< one line per noteworthy run
};

struct FaultSweepResult {
  /// Fault-free stock Algorithm 1 over the same delay seeds: the latency
  /// yardstick the hardened numbers are compared against.
  LatencyReport clean_latency;
  std::vector<FaultCellResult> cells;

  /// Claim 1: every hardened run, every cell, linearizable.
  bool hardened_all_linearizable() const;
  /// Claim 2: every cell injecting drops flagged the stock algorithm in at
  /// least one run.
  bool unhardened_flagged_under_drops() const;
  /// Claim 3: no flagged run went unexplained.
  bool all_failures_attributed() const;

  /// The three claims together.
  bool ok() const {
    return hardened_all_linearizable() && unhardened_flagged_under_drops() &&
           all_failures_attributed();
  }

  /// Formatted per-cell table (for bench_fault_sweep).
  std::string table() const;
};

/// Run the sweep: for each cell and seed, one hardened and one stock run
/// over identical fault and delay randomness, plus one fault-free stock run
/// per seed as the latency baseline.
FaultSweepResult run_fault_sweep(const std::shared_ptr<const ObjectModel>& model,
                                 const WorkloadFactory& workload,
                                 const FaultSweepOptions& options);

}  // namespace linbound
