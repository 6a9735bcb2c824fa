#include "harness/fault_sweep.h"

#include <iomanip>
#include <sstream>

namespace linbound {
namespace {

struct FaultRun : RunMeasure {
  LatencyReport latency;
};

Tick worst_latency(const LatencyReport& report) {
  Tick worst = kNoTime;
  for (const auto& [code, summary] : report.by_code) {
    (void)code;
    if (summary.count > 0 && (worst == kNoTime || summary.max > worst)) {
      worst = summary.max;
    }
  }
  return worst;
}

}  // namespace

std::string FaultCell::label() const {
  std::ostringstream os;
  os << "drop=" << drop_p << " dup=" << dup_p << " spike=" << spike_p;
  if (spike_p > 0) os << "(+<=" << spike_max << ")";
  return os.str();
}

std::vector<FaultCell> default_fault_cells(const SystemTiming& timing) {
  // Spikes up to u on top of a delay drawn from [d-u, d] land in
  // (d-u, d+u]: roughly half of them exceed the model's upper bound d.
  const Tick boost = timing.u > 0 ? timing.u : timing.d / 2;
  return {
      FaultCell{0.05, 0.0, 0.0, 0},     // light loss
      FaultCell{0.20, 0.0, 0.0, 0},     // heavy loss
      FaultCell{0.0, 0.10, 0.0, 0},     // duplication
      FaultCell{0.0, 0.30, 0.0, 0},     // heavy duplication
      FaultCell{0.0, 0.0, 0.10, boost},  // delay spikes
      FaultCell{0.10, 0.10, 0.05, boost},  // the combined mix
  };
}

bool FaultSweepResult::hardened_all_linearizable() const {
  for (const FaultCellResult& cell : cells) {
    if (cell.hardened_linearizable != cell.runs) return false;
  }
  return !cells.empty();
}

bool FaultSweepResult::unhardened_flagged_under_drops() const {
  bool saw_drop_cell = false;
  for (const FaultCellResult& cell : cells) {
    if (cell.cell.drop_p <= 0) continue;
    saw_drop_cell = true;
    if (cell.unhardened_flagged == 0) return false;
  }
  return saw_drop_cell;
}

bool FaultSweepResult::all_failures_attributed() const {
  for (const FaultCellResult& cell : cells) {
    if (cell.failures_unattributed != 0) return false;
  }
  return true;
}

std::string FaultSweepResult::table() const {
  std::ostringstream os;
  const Tick clean_worst = worst_latency(clean_latency);
  os << std::left << std::setw(34) << "fault cell" << std::right
     << std::setw(12) << "hardened-ok" << std::setw(10) << "stock-ok"
     << std::setw(9) << "flagged" << std::setw(12) << "attributed"
     << std::setw(9) << "retrans" << std::setw(12) << "worst-lat"
     << std::setw(10) << "vs-clean" << "\n";
  for (const FaultCellResult& cell : cells) {
    const Tick worst = worst_latency(cell.hardened_latency);
    os << std::left << std::setw(34) << cell.cell.label() << std::right
       << std::setw(9) << cell.hardened_linearizable << "/" << cell.runs
       << std::setw(7) << cell.unhardened_linearizable << "/" << cell.runs
       << std::setw(9) << cell.unhardened_flagged << std::setw(9)
       << cell.failures_attributed << "/"
       << (cell.failures_attributed + cell.failures_unattributed)
       << std::setw(9) << cell.retransmissions << std::setw(12) << worst;
    if (clean_worst != kNoTime && clean_worst > 0 && worst != kNoTime) {
      os << std::setw(9) << std::fixed << std::setprecision(2)
         << static_cast<double>(worst) / static_cast<double>(clean_worst)
         << "x";
    } else {
      os << std::setw(10) << "-";
    }
    os << "\n";
  }
  os << "clean stock baseline worst latency: " << clean_worst << "\n";
  return os.str();
}

FaultSweepResult run_fault_sweep(const std::shared_ptr<const ObjectModel>& model,
                                 const WorkloadFactory& workload,
                                 const FaultSweepOptions& options) {
  FaultSweepResult result;
  const std::vector<FaultCell> cells =
      options.cells.empty() ? default_fault_cells(options.timing) : options.cells;

  const GridSeeds seeds{options.base_seed};
  const auto run = [&](const FaultConfig& faults, ChaosVariant variant,
                       int seed) {
    RunSpec spec = grid_run_spec(model, options.n, options.timing, options.x,
                                 workload, seeds, seed, faults, variant);
    spec.reliable.link = options.hardened;
    const Simulation sim = simulate(std::move(spec));
    FaultRun out;
    static_cast<RunMeasure&>(out) = measure(sim);
    out.latency.absorb(*model, sim.trace());
    return out;
  };

  // Phase 1: the clean baseline, one run per seed.
  const std::vector<FaultRun> clean_runs = map_grid<FaultRun>(
      options.jobs, 1, options.seeds, [&](std::size_t, int seed) {
        return run(FaultConfig{}, ChaosVariant::kStock, seed);
      });
  for (const FaultRun& clean : clean_runs) {
    result.clean_latency.merge(clean.latency);
  }

  // Phase 2: the grid.  One task per (cell, seed) computes the hardened
  // and stock variants together over identical fault and delay randomness.
  struct PairRuns {
    FaultRun hardened;
    FaultRun stock;
  };
  const std::vector<PairRuns> grid_runs = map_grid<PairRuns>(
      options.jobs, cells.size(), options.seeds, [&](std::size_t ci, int seed) {
        FaultConfig faults;
        faults.drop_p = cells[ci].drop_p;
        faults.dup_p = cells[ci].dup_p;
        faults.spike_p = cells[ci].spike_p;
        faults.spike_max = cells[ci].spike_max;
        faults.seed = seeds.faults(ci, seed);
        return PairRuns{run(faults, ChaosVariant::kHardened, seed),
                        run(faults, ChaosVariant::kStock, seed)};
      });

  std::size_t next = 0;  // grid_runs is cell-major: the loops walk it in order
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    FaultCellResult cell_result;
    cell_result.cell = cells[ci];
    for (int seed = 0; seed < options.seeds; ++seed) {
      const PairRuns& pair = grid_runs[next++];
      const FaultRun& hardened = pair.hardened;
      const FaultRun& stock = pair.stock;

      ++cell_result.runs;
      cell_result.retransmissions += hardened.retransmissions;
      cell_result.duplicates_suppressed += hardened.duplicates_suppressed;
      if (hardened.linearizable) ++cell_result.hardened_linearizable;
      cell_result.hardened_latency.merge(hardened.latency);

      if (stock.linearizable) ++cell_result.unhardened_linearizable;

      for (const FaultRun* run : {&hardened, &stock}) {
        const bool is_hardened = run == &hardened;
        if (run->linearizable && run->complete()) continue;  // not flagged
        if (!is_hardened) ++cell_result.unhardened_flagged;
        if (run->report.clean()) {
          ++cell_result.failures_unattributed;
        } else {
          ++cell_result.failures_attributed;
        }
        std::ostringstream note;
        note << (is_hardened ? "hardened" : "stock") << " seed=" << seed << " ["
             << cells[ci].label() << "] status=" << run_status_name(run->status)
             << " " << run->report.attribute(run->linearizable);
        cell_result.notes.push_back(note.str());
      }
    }
    result.cells.push_back(std::move(cell_result));
  }
  return result;
}

}  // namespace linbound
