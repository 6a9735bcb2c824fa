#include "harness/churn_sweep.h"

#include <algorithm>
#include <iomanip>
#include <optional>
#include <sstream>

#include "fault/churn.h"

namespace linbound {
namespace {

/// Raise `worst` to `t`; kNoTime is "no sample" on either side.
void raise_worst(Tick& worst, Tick t) {
  if (t != kNoTime && (worst == kNoTime || t > worst)) worst = t;
}

/// Everything the sweep needs to know about one churned run.
struct OneChurnRun : RunMeasure {
  Tick worst_crash_to_response = kNoTime;
  Tick worst_rejoin_latency = kNoTime;
  int rejoin_bound_violations = 0;
  int survivor_bound_violations = 0;
};

OneChurnRun run_one(const std::shared_ptr<const ObjectModel>& model,
                    const WorkloadFactory& workload,
                    const ChurnSweepOptions& options, const FaultConfig& faults,
                    const GridSeeds& seeds, int seed, Tick recovery_bound) {
  RunSpec spec = grid_run_spec(model, options.n, options.timing, options.x,
                               workload, seeds, seed, faults,
                               ChaosVariant::kRecoverable);
  spec.reliable = options.recoverable;
  const Simulation run = simulate(std::move(spec));
  OneChurnRun out;
  static_cast<RunMeasure&>(out) = measure(run);
  const Trace& trace = run.trace();

  // Survivor bound check: replicas with no churn window answer every class
  // within the algorithm's own response bound -- the rejoin protocol never
  // makes them wait.
  const std::vector<ProcessId> churners =
      make_churn_schedule(faults, options.n).churners();
  for (const OperationRecord& rec : trace.ops) {
    if (!rec.completed()) continue;
    if (std::find(churners.begin(), churners.end(), rec.proc) !=
        churners.end()) {
      continue;
    }
    if (rec.response_time - rec.invoke_time >
        run.algorithm_delays->bound(model->classify(rec.op))) {
      ++out.survivor_bound_violations;
    }
  }

  // Recovery timing: per recovery event, the crash->first-response gap and
  // the latency of the first operation completed after the rejoin.
  for (const FaultEvent& f : trace.faults) {
    if (f.kind != FaultKind::kProcessRecovered) continue;
    Tick crash_time = kNoTime;
    for (const FaultEvent& c : trace.faults) {
      if (c.kind == FaultKind::kProcessCrashed && c.proc == f.proc &&
          c.time <= f.time && (crash_time == kNoTime || c.time > crash_time)) {
        crash_time = c.time;
      }
    }
    const OpLog& ops = trace.ops;
    std::optional<std::size_t> first;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops.proc(i) != f.proc || !ops.completed(i)) continue;
      if (ops.invoke_time(i) < f.time) continue;
      if (!first || ops.response_time(i) < ops.response_time(*first)) first = i;
    }
    if (!first) continue;  // workload drained before this recovery
    const Tick first_response = ops.response_time(*first);
    if (crash_time != kNoTime) {
      raise_worst(out.worst_crash_to_response, first_response - crash_time);
    }
    const Tick latency = first_response - ops.invoke_time(*first);
    raise_worst(out.worst_rejoin_latency, latency);
    if (latency > recovery_bound) ++out.rejoin_bound_violations;
  }
  return out;
}

}  // namespace

std::string ChurnCell::label() const {
  std::ostringstream os;
  os << "up~" << mean_uptime << " down~" << mean_downtime;
  return os.str();
}

std::vector<ChurnCell> default_churn_cells(const SystemTiming& timing,
                                           const RecoverableParams& params) {
  const Tick d_eff = params.link.effective_d(timing);
  return {
      ChurnCell{8 * d_eff, d_eff},      // occasional short outages
      ChurnCell{8 * d_eff, 3 * d_eff},  // occasional long outages
      ChurnCell{4 * d_eff, d_eff},      // frequent short outages
  };
}

Tick churn_recovery_bound(const SystemTiming& timing,
                          const RecoverableParams& params,
                          const AlgorithmDelays& delays) {
  const Tick d_eff = params.link.effective_d(timing);
  const Tick serve = std::max({delays.bound(OpClass::kOther),
                               delays.bound(OpClass::kPureMutator),
                               delays.bound(OpClass::kPureAccessor)});
  // Join round trip + one retry's slack + catch-up window + the slowest
  // class's own response bound.
  return 2 * d_eff + params.join_retry_for(timing) +
         params.catchup_for(timing) + serve;
}

bool ChurnSweepResult::all_linearizable() const {
  for (const ChurnCellResult& cell : cells) {
    if (cell.linearizable != cell.runs) return false;
  }
  return !cells.empty();
}

bool ChurnSweepResult::survivors_within_bounds() const {
  for (const ChurnCellResult& cell : cells) {
    if (cell.survivor_bound_violations != 0) return false;
  }
  return true;
}

bool ChurnSweepResult::recovery_bounded() const {
  for (const ChurnCellResult& cell : cells) {
    if (cell.rejoin_bound_violations != 0) return false;
  }
  return true;
}

bool ChurnSweepResult::churn_attributed() const {
  for (const ChurnCellResult& cell : cells) {
    if (cell.failures_unattributed != 0) return false;
    if (cell.crashes > 0 && cell.runs_with_recovering_attribution == 0) {
      return false;
    }
  }
  return true;
}

std::string ChurnSweepResult::table() const {
  std::ostringstream os;
  os << std::left << std::setw(26) << "churn cell" << std::right
     << std::setw(8) << "lin-ok" << std::setw(13) << "availability"
     << std::setw(9) << "crashes" << std::setw(9) << "reissue"
     << std::setw(15) << "worst-rejoin" << std::setw(17) << "crash->response"
     << "\n";
  for (const ChurnCellResult& cell : cells) {
    os << std::left << std::setw(26) << cell.cell.label() << std::right
       << std::setw(5) << cell.linearizable << "/" << cell.runs
       << std::setw(12) << std::fixed << std::setprecision(3)
       << cell.availability() << std::setw(9) << cell.crashes << std::setw(9)
       << cell.reissued << std::setw(15)
       << (cell.worst_rejoin_latency == kNoTime
               ? std::string("-")
               : std::to_string(cell.worst_rejoin_latency))
       << std::setw(17)
       << (cell.worst_crash_to_response == kNoTime
               ? std::string("-")
               : std::to_string(cell.worst_crash_to_response))
       << "\n";
  }
  os << "per-class bounds: OOP " << oop_bound << ", MOP " << mop_bound
     << ", AOP " << aop_bound << "; rejoin bound " << recovery_bound << "\n";
  return os.str();
}

ChurnSweepResult run_churn_sweep(const std::shared_ptr<const ObjectModel>& model,
                                 const WorkloadFactory& workload,
                                 const ChurnSweepOptions& options) {
  ChurnSweepResult result;
  const std::vector<ChurnCell> cells =
      options.cells.empty()
          ? default_churn_cells(options.timing, options.recoverable)
          : options.cells;

  const SystemTiming eff =
      options.recoverable.link.effective_timing(options.timing);
  const AlgorithmDelays delays = AlgorithmDelays::standard(eff, options.x);
  result.oop_bound = delays.bound(OpClass::kOther);
  result.mop_bound = delays.bound(OpClass::kPureMutator);
  result.aop_bound = delays.bound(OpClass::kPureAccessor);
  result.recovery_bound =
      churn_recovery_bound(options.timing, options.recoverable, delays);

  // The workload runs from t=1000 for roughly ops * worst-op ticks; churn
  // covers that window so crashes land while operations are in flight.
  const Tick churn_start = 1000 + result.oop_bound;
  const Tick churn_horizon =
      1000 + static_cast<Tick>(options.ops_per_client) * result.oop_bound;

  const GridSeeds seeds{options.base_seed};
  const std::vector<OneChurnRun> grid_runs = map_grid<OneChurnRun>(
      options.jobs, cells.size(), options.seeds, [&](std::size_t ci, int seed) {
        FaultConfig faults;
        faults.churn.mean_uptime = cells[ci].mean_uptime;
        faults.churn.mean_downtime = cells[ci].mean_downtime;
        faults.churn.start = churn_start;
        faults.churn.horizon = churn_horizon;
        faults.seed = seeds.faults(ci, seed);
        return run_one(model, workload, options, faults, seeds, seed,
                       result.recovery_bound);
      });

  std::size_t next = 0;  // grid_runs is cell-major: the loops walk it in order
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    ChurnCellResult cell_result;
    cell_result.cell = cells[ci];
    for (int seed = 0; seed < options.seeds; ++seed) {
      const OneChurnRun& run = grid_runs[next++];

      ++cell_result.runs;
      if (run.linearizable) ++cell_result.linearizable;
      cell_result.invocations += run.invoked;
      cell_result.answered += run.answered;
      cell_result.crashes += run.crashes;
      cell_result.reissued += run.reissued;
      cell_result.rejoin_bound_violations += run.rejoin_bound_violations;
      cell_result.survivor_bound_violations += run.survivor_bound_violations;
      raise_worst(cell_result.worst_crash_to_response,
                  run.worst_crash_to_response);
      raise_worst(cell_result.worst_rejoin_latency, run.worst_rejoin_latency);
      if (run.report.violated(Assumption::kRecovering)) {
        ++cell_result.runs_with_recovering_attribution;
      }
      if (!run.linearizable || run.status == RunStatus::kAborted) {  // flagged
        if (run.report.clean()) ++cell_result.failures_unattributed;
        std::ostringstream note;
        note << "seed=" << seed << " [" << cells[ci].label()
             << "] status=" << run_status_name(run.status) << " "
             << run.report.attribute(run.linearizable);
        cell_result.notes.push_back(note.str());
      }
    }
    result.cells.push_back(std::move(cell_result));
  }
  return result;
}

}  // namespace linbound
