#include "harness/mode_sweep.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace linbound {
namespace {

/// Handoff pauses: per mode-switch signal, the time to the next answered
/// operation.  A switch after the last response contributes no sample
/// (nobody was waiting).
std::vector<Tick> switch_latencies(const Trace& trace) {
  std::vector<Tick> response_times;
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    if (trace.ops.completed(i)) {
      response_times.push_back(trace.ops.response_time(i));
    }
  }
  std::sort(response_times.begin(), response_times.end());
  std::vector<Tick> out;
  for (const FaultEvent& f : trace.faults) {
    if (f.kind != FaultKind::kModeDowngrade &&
        f.kind != FaultKind::kModeUpgrade) {
      continue;
    }
    const auto it = std::lower_bound(response_times.begin(),
                                     response_times.end(), f.time);
    if (it != response_times.end()) out.push_back(*it - f.time);
  }
  return out;
}

}  // namespace

FaultConfig full_storm(const SystemTiming& timing, int n) {
  const Tick d = timing.d;
  FaultConfig f;
  f.spike_p = 0.25;
  f.spike_max = 4 * d;
  PartitionWindow w;
  w.from = 1500;
  w.until = w.from + 6 * d;
  w.component_of.assign(static_cast<std::size_t>(n), 0);
  w.component_of[0] = 1;
  f.partitions.push_back(std::move(w));
  f.churn.mean_uptime = 10 * d;
  f.churn.mean_downtime = 2 * d;
  f.churn.start = 2000;
  f.churn.horizon = 20 * d;
  f.churn.max_down = (n - 1) / 2;
  return f;
}

std::vector<ModeStormCell> default_mode_storm_cells(const SystemTiming& timing,
                                                    int n) {
  const FaultConfig storm = full_storm(timing, n);
  std::vector<ModeStormCell> cells;

  // A barrage of delay spikes far past the envelope: enough violations to
  // trip the supervisor quickly, healing on its own once the workload ends.
  {
    ModeStormCell cell;
    cell.name = "spike-barrage";
    cell.faults.spike_p = storm.spike_p;
    cell.faults.spike_max = storm.spike_max;
    cells.push_back(std::move(cell));
  }

  // The storm's healed partition with lighter spikes on top: messages both
  // late and lost.
  {
    ModeStormCell cell;
    cell.name = "partition+spikes";
    cell.faults.spike_p = 0.15;
    cell.faults.spike_max = storm.spike_max;
    cell.faults.partitions = storm.partitions;
    cells.push_back(std::move(cell));
  }

  cells.push_back(ModeStormCell{"full-storm", storm});
  return cells;
}

bool ModeSweepResult::switching_always_available() const {
  for (const ModeCellResult& cell : cells) {
    if (cell.ops_answered != cell.ops_invoked) return false;
    if (cell.switching_complete != cell.runs) return false;
  }
  return !cells.empty();
}

bool ModeSweepResult::switching_always_linearizable() const {
  for (const ModeCellResult& cell : cells) {
    if (cell.switching_linearizable != cell.runs) return false;
  }
  return !cells.empty();
}

bool ModeSweepResult::fixed_mode_stalled_somewhere() const {
  for (const ModeCellResult& cell : cells) {
    if (cell.stock_complete < cell.runs || cell.hardened_complete < cell.runs) {
      return true;
    }
  }
  return false;
}

double ModeSweepResult::degraded_availability() const {
  std::int64_t invoked = 0, answered = 0;
  for (const ModeCellResult& cell : cells) {
    invoked += cell.ops_invoked;
    answered += cell.ops_answered;
  }
  return invoked == 0 ? 1.0
                      : static_cast<double>(answered) /
                            static_cast<double>(invoked);
}

Tick ModeSweepResult::switch_latency_percentile(double pct) const {
  std::vector<Tick> samples;
  for (const ModeCellResult& cell : cells) {
    samples.insert(samples.end(), cell.switch_latencies.begin(),
                   cell.switch_latencies.end());
  }
  if (samples.empty() || pct <= 0.0 || pct > 100.0) return kNoTime;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

std::string ModeSweepResult::table() const {
  std::ostringstream os;
  os << std::left << std::setw(20) << "storm" << std::right << std::setw(12)
     << "switch-ok" << std::setw(10) << "answered" << std::setw(8) << "down"
     << std::setw(6) << "up" << std::setw(10) << "stock-ok" << std::setw(12)
     << "hardened-ok" << "\n";
  for (const ModeCellResult& cell : cells) {
    os << std::left << std::setw(20) << cell.cell.name << std::right
       << std::setw(9) << cell.switching_linearizable << "/" << cell.runs
       << std::setw(6) << cell.ops_answered << "/" << cell.ops_invoked
       << std::setw(6) << cell.downgrades << std::setw(6) << cell.upgrades
       << std::setw(7) << cell.stock_complete << "/" << cell.runs
       << std::setw(9) << cell.hardened_complete << "/" << cell.runs << "\n";
  }
  const Tick p99 = switch_latency_percentile(99.0);
  os << "availability=" << std::fixed << std::setprecision(4)
     << degraded_availability() << " switch-latency-p99="
     << (p99 == kNoTime ? std::string("-") : std::to_string(p99)) << "\n";
  return os.str();
}

ModeSweepResult run_mode_sweep(const std::shared_ptr<const ObjectModel>& model,
                               const WorkloadFactory& workload,
                               const ModeSweepOptions& options) {
  ModeSweepResult result;
  const std::vector<ModeStormCell> cells =
      options.cells.empty() ? default_mode_storm_cells(options.timing, options.n)
                            : options.cells;

  struct CellRuns {
    RunMeasure switching;
    std::vector<Tick> switch_latencies;
    RunMeasure stock;
    RunMeasure hardened;
  };
  const GridSeeds seeds{options.base_seed};
  // No client reissue in any variant: the switching system answers
  // crash-cut operations itself from the durable quorum log, and in the
  // fixed-mode runs a cut operation stays pending -- the stall this sweep
  // measures.  (A retry could race the late answer from durable state, and
  // the two completions would overlap within the process, which the checker
  // rejects.)
  const auto spec = [&](const FaultConfig& faults, ChaosVariant variant,
                        int seed) {
    RunSpec s = grid_run_spec(model, options.n, options.timing, options.x,
                              workload, seeds, seed, faults, variant);
    s.reissue_cut_ops = false;
    return s;
  };
  const std::vector<CellRuns> grid = map_grid<CellRuns>(
      options.jobs, cells.size(), options.seeds, [&](std::size_t ci, int seed) {
        FaultConfig faults = cells[ci].faults;
        faults.seed = seeds.faults(ci, seed);
        CellRuns runs;
        const Simulation sw =
            simulate(spec(faults, ChaosVariant::kModeSwitching, seed));
        runs.switching = measure(sw);
        runs.switch_latencies = switch_latencies(sw.trace());
        runs.stock =
            measure(simulate(spec(faults, ChaosVariant::kStock, seed)));
        runs.hardened =
            measure(simulate(spec(faults, ChaosVariant::kHardened, seed)));
        return runs;
      });

  std::size_t next = 0;  // grid is cell-major: the loops walk it in order
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    ModeCellResult cell_result;
    cell_result.cell = cells[ci];
    for (int seed = 0; seed < options.seeds; ++seed) {
      const CellRuns& runs = grid[next++];
      const RunMeasure& sw = runs.switching;
      ++cell_result.runs;
      if (sw.complete()) ++cell_result.switching_complete;
      if (sw.linearizable) ++cell_result.switching_linearizable;
      cell_result.downgrades += sw.downgrades;
      cell_result.upgrades += sw.upgrades;
      cell_result.ops_invoked += sw.invoked;
      cell_result.ops_answered += sw.answered;
      cell_result.switch_latencies.insert(cell_result.switch_latencies.end(),
                                          runs.switch_latencies.begin(),
                                          runs.switch_latencies.end());
      if (runs.stock.complete()) ++cell_result.stock_complete;
      if (runs.hardened.complete()) ++cell_result.hardened_complete;
      if (!sw.complete() || !sw.linearizable) {
        std::ostringstream note;
        note << "switching seed=" << seed << " [" << cells[ci].name
             << "] status=" << run_status_name(sw.status)
             << (sw.linearizable ? "" : " NON-LINEARIZABLE: " + sw.explanation);
        cell_result.notes.push_back(note.str());
      }
    }
    result.cells.push_back(std::move(cell_result));
  }
  return result;
}

}  // namespace linbound
