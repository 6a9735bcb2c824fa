#include "harness/fault_sweep.h"

#include <iomanip>
#include <sstream>

#include "core/driver.h"
#include "fault/assumption_monitor.h"
#include "fault/fault_policy.h"
#include "common/parallel.h"

namespace linbound {
namespace {

/// Everything the sweep needs to know about one run.
struct OneRun {
  RunStatus status = RunStatus::kComplete;
  bool linearizable = false;
  std::string explanation;
  AssumptionReport report;
  LatencyReport latency;
  std::int64_t retransmissions = 0;
  std::int64_t duplicates_suppressed = 0;

  bool flagged() const {
    return !linearizable || status != RunStatus::kComplete;
  }
};

OneRun run_one(const std::shared_ptr<const ObjectModel>& model,
               const WorkloadFactory& workload, const FaultSweepOptions& options,
               const FaultConfig& faults, bool hardened,
               std::uint64_t delay_seed, std::uint64_t workload_seed) {
  SystemOptions sys;
  sys.n = options.n;
  sys.timing = options.timing;
  sys.x = options.x;
  sys.delays = std::make_shared<UniformDelayPolicy>(options.timing, delay_seed);
  if (faults.any()) sys.faults = make_fault_policy(faults);
  if (hardened) {
    HardenedParams params = options.hardened;
    params.spike_margin = faults.spike_max;  // absorb the worst injected boost
    sys.hardened = params;
  }
  ReplicaSystem system(model, sys);

  Rng wl_rng(workload_seed);
  std::vector<ClientScript> scripts;
  scripts.reserve(static_cast<std::size_t>(options.n));
  for (int pid = 0; pid < options.n; ++pid) {
    Rng client_rng = wl_rng.split(static_cast<std::uint64_t>(pid));
    scripts.push_back(ClientScript{static_cast<ProcessId>(pid),
                                   workload(pid, client_rng),
                                   /*start_time=*/1000, options.think_time});
  }
  WorkloadDriver driver(system.sim(), std::move(scripts));
  driver.arm();

  const RunOutcome outcome = system.run_with_outcome();
  const CheckResult check = check_linearizable_with_pending(
      *model, outcome.history, outcome.pending, options.check);

  OneRun out;
  out.status = outcome.status;
  out.linearizable = check.ok;
  out.explanation = check.explanation;
  out.report = audit_assumptions(system.sim().trace());
  out.latency.absorb(*model, system.sim().trace());
  if (hardened) {
    for (int pid = 0; pid < options.n; ++pid) {
      auto& replica =
          dynamic_cast<HardenedReplicaProcess&>(system.replica(pid));
      out.retransmissions += replica.retransmissions();
      out.duplicates_suppressed += replica.duplicates_suppressed();
    }
  }
  return out;
}

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

  // Seed derivation: delay and workload randomness depend only on the seed
  // index, so every cell (and the clean baseline) replays the same delays
  // and the same client scripts -- the fault intensity is the only thing
  // that varies across cells.
  const auto delay_seed = [&](int seed) {
    return options.base_seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(seed);
  };
  const auto workload_seed = [&](int seed) {
    return options.base_seed ^ (0xd1b54a32d192ed03ULL +
                                0x2545f4914f6cdd1dULL * static_cast<std::uint64_t>(seed));
  };

  const ParallelSweepExecutor executor(options.jobs);

  // Phase 1: the clean baseline, one run per seed.
  const std::vector<OneRun> clean_runs = executor.map<OneRun>(
      static_cast<std::size_t>(options.seeds), [&](std::size_t seed) {
        return run_one(model, workload, options, FaultConfig{},
                       /*hardened=*/false, delay_seed(static_cast<int>(seed)),
                       workload_seed(static_cast<int>(seed)));
      });
  for (const OneRun& clean : clean_runs) {
    result.clean_latency.merge(clean.latency);
  }

  // Phase 2: the grid.  One task per (cell, seed) computes the hardened
  // and stock variants together; aggregation below walks the results in
  // the same (cell, seed) order as the serial sweep.
  struct PairRuns {
    OneRun hardened;
    OneRun stock;
  };
  const std::size_t seeds = static_cast<std::size_t>(options.seeds);
  const std::vector<PairRuns> grid_runs = executor.map<PairRuns>(
      cells.size() * seeds, [&](std::size_t i) {
        const std::size_t ci = i / seeds;
        const int seed = static_cast<int>(i % seeds);
        FaultConfig faults;
        faults.drop_p = cells[ci].drop_p;
        faults.dup_p = cells[ci].dup_p;
        faults.spike_p = cells[ci].spike_p;
        faults.spike_max = cells[ci].spike_max;
        faults.seed = options.base_seed + 0xbf58476d1ce4e5b9ULL * (ci + 1) +
                      static_cast<std::uint64_t>(seed);
        PairRuns pair;
        pair.hardened = run_one(model, workload, options, faults,
                                /*hardened=*/true, delay_seed(seed),
                                workload_seed(seed));
        pair.stock = run_one(model, workload, options, faults,
                             /*hardened=*/false, delay_seed(seed),
                             workload_seed(seed));
        return pair;
      });

  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    FaultCellResult cell_result;
    cell_result.cell = cells[ci];
    for (int seed = 0; seed < options.seeds; ++seed) {
      const PairRuns& pair =
          grid_runs[ci * seeds + static_cast<std::size_t>(seed)];
      const OneRun& hardened = pair.hardened;
      const OneRun& stock = pair.stock;

      ++cell_result.runs;
      cell_result.retransmissions += hardened.retransmissions;
      cell_result.duplicates_suppressed += hardened.duplicates_suppressed;
      if (hardened.linearizable) ++cell_result.hardened_linearizable;
      if (hardened.status == RunStatus::kComplete) ++cell_result.hardened_complete;
      cell_result.hardened_latency.merge(hardened.latency);

      if (stock.linearizable) ++cell_result.unhardened_linearizable;

      for (const OneRun* run : {&hardened, &stock}) {
        const bool is_hardened = run == &hardened;
        if (!run->flagged()) continue;
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
