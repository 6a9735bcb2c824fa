// The degradation counterpart of harness/fault_sweep.h: sweep the
// mode-switching system (src/degrade) over a grid of *storms* -- delay-spike
// barrages, healed partitions, minority crash churn -- heavy enough to break
// the paper's timing envelope, and quantify what graceful degradation buys:
//
//   1. availability: the switching system answers every invoked operation
//      in every storm that heals, where the fixed-mode variants (stock and
//      hardened Algorithm 1, run over the same storms for comparison) are
//      driven to stalls;
//   2. safety: every switching run is linearizable, downgrades and all;
//   3. price: the mode-switch handoff latency (signal to next answered
//      operation) and the per-run downgrade/upgrade counts, aggregated so
//      bench_degrade can report mode_switch_latency_p99 and
//      degraded_availability.
//
// Every (cell, seed) run is an independent deterministic simulation built
// by the shared run builder in harness/experiment.h (grid_run_spec,
// simulate, measure) over a map_grid, so the sweep gives byte-identical
// results at any job count.  The supervisor runs with its default
// MonitorOptions.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "fault/fault_policy.h"
#include "harness/experiment.h"

namespace linbound {

/// One storm: a named fault cocktail (spikes, partitions, links, churn).
struct ModeStormCell {
  std::string name;
  FaultConfig faults;
};

struct ModeSweepOptions {
  int n = 4;
  SystemTiming timing;
  Tick x = 0;           ///< Algorithm 1's trade-off parameter (sync eras)
  int seeds = 5;        ///< randomized runs per cell
  /// Storm grid; empty means default_mode_storm_cells().
  std::vector<ModeStormCell> cells;
  std::uint64_t base_seed = 0xdeb'ade'5eedULL;
  int jobs = 1;  ///< worker threads; results identical at any value
};

/// The full cocktail: a delay-spike barrage, a partition that heals, and
/// minority crash churn -- heavy enough to drive the fixed-mode variants to
/// give up, yet sure to heal.  The sweep's "full-storm" cell and the chaos
/// grid's degradation storm (chaos/search.cpp).
FaultConfig full_storm(const SystemTiming& timing, int n);

/// The standard storms: a spike barrage, a healed partition under spikes,
/// and the full storm.
std::vector<ModeStormCell> default_mode_storm_cells(const SystemTiming& timing,
                                                    int n);

/// Per-cell aggregate over the seeds.
struct ModeCellResult {
  ModeStormCell cell;
  int runs = 0;

  int switching_complete = 0;      ///< quiesced with nothing pending
  int switching_linearizable = 0;
  int downgrades = 0;              ///< summed over the cell's runs
  int upgrades = 0;
  std::int64_t ops_invoked = 0;
  std::int64_t ops_answered = 0;
  /// One sample per mode-switch signal: time from the signal to the next
  /// answered operation (the handoff pause clients actually feel).
  std::vector<Tick> switch_latencies;

  int stock_complete = 0;     ///< fixed-mode comparison
  int hardened_complete = 0;
  std::vector<std::string> notes;  ///< one line per noteworthy run
};

struct ModeSweepResult {
  std::vector<ModeCellResult> cells;

  /// Claim 1: the switching system answered everything, every cell.
  bool switching_always_available() const;
  /// Claim 2: every switching run linearizable.
  bool switching_always_linearizable() const;
  /// Claim 3: some storm stalled a fixed-mode variant, so the comparison
  /// is non-vacuous.
  bool fixed_mode_stalled_somewhere() const;

  bool ok() const {
    return switching_always_available() && switching_always_linearizable();
  }

  /// Fraction of invoked operations answered by the switching system.
  double degraded_availability() const;
  /// Nearest-rank percentile over every switch-latency sample (pct in
  /// (0, 100]); kNoTime when no switch fired anywhere.
  Tick switch_latency_percentile(double pct) const;

  /// Formatted per-cell table (for bench_degrade).
  std::string table() const;
};

/// Run the sweep: per (cell, seed) one switching run, plus one stock and
/// one hardened run over the same delays/workload/faults.
ModeSweepResult run_mode_sweep(const std::shared_ptr<const ObjectModel>& model,
                               const WorkloadFactory& workload,
                               const ModeSweepOptions& options);

}  // namespace linbound
