#include "harness/churn_sweep.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/driver.h"
#include "fault/assumption_monitor.h"
#include "fault/fault_policy.h"
#include "common/parallel.h"

namespace linbound {
namespace {

/// Everything the sweep needs to know about one churned run.
struct OneChurnRun {
  RunStatus status = RunStatus::kComplete;
  bool linearizable = false;
  std::string explanation;
  AssumptionReport report;
  std::int64_t invocations = 0;
  std::int64_t answered = 0;
  int crashes = 0;
  int recoveries = 0;
  int reissued = 0;
  Tick worst_crash_to_response = kNoTime;
  Tick worst_rejoin_latency = kNoTime;
  int rejoin_bound_violations = 0;
  int survivor_bound_violations = 0;

  bool flagged() const {
    return !linearizable || status == RunStatus::kEventCapExceeded;
  }
};

Tick class_bound(const AlgorithmDelays& delays, OpClass cls) {
  switch (cls) {
    case OpClass::kPureMutator:
      return delays.mop_ack;
    case OpClass::kPureAccessor:
      return delays.aop_respond;
    case OpClass::kOther:
      return delays.self_add + delays.holdback;
  }
  return 0;
}

OneChurnRun run_one(const std::shared_ptr<const ObjectModel>& model,
                    const WorkloadFactory& workload,
                    const ChurnSweepOptions& options, const ChurnConfig& churn,
                    std::uint64_t churn_seed, std::uint64_t delay_seed,
                    std::uint64_t workload_seed, Tick recovery_bound) {
  SystemOptions sys;
  sys.n = options.n;
  sys.timing = options.timing;
  sys.x = options.x;
  sys.delays = std::make_shared<UniformDelayPolicy>(options.timing, delay_seed);
  sys.recoverable = options.recoverable;
  ReplicaSystem system(model, sys);

  FaultConfig faults;
  faults.churn = churn;
  faults.seed = churn_seed;
  const ChurnSchedule schedule = make_churn_schedule(faults, options.n);
  schedule.apply(system.sim());

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
  const Trace& trace = system.sim().trace();

  OneChurnRun out;
  out.status = outcome.status;
  out.linearizable = check.ok;
  out.explanation = check.explanation;
  out.report = audit_assumptions(trace);
  out.invocations = static_cast<std::int64_t>(trace.ops.size());
  out.reissued = driver.reissued();
  for (const OperationRecord& rec : trace.ops) {
    if (rec.completed()) ++out.answered;
  }

  // Survivor bound check: replicas with no churn window answer every class
  // within the algorithm's own response bound -- the rejoin protocol never
  // makes them wait.
  const std::vector<ProcessId> churners = schedule.churners();
  const AlgorithmDelays& delays = system.algorithm_delays();
  for (const OperationRecord& rec : trace.ops) {
    if (!rec.completed()) continue;
    if (std::find(churners.begin(), churners.end(), rec.proc) !=
        churners.end()) {
      continue;
    }
    const Tick bound = class_bound(delays, model->classify(rec.op));
    if (rec.response_time - rec.invoke_time > bound) {
      ++out.survivor_bound_violations;
    }
  }

  // Recovery timing: per recovery event, the crash->first-response gap and
  // the latency of the first operation completed after the rejoin.
  for (const FaultEvent& f : trace.faults) {
    if (f.kind == FaultKind::kProcessCrashed) ++out.crashes;
    if (f.kind != FaultKind::kProcessRecovered) continue;
    ++out.recoveries;
    Tick crash_time = kNoTime;
    for (const FaultEvent& c : trace.faults) {
      if (c.kind == FaultKind::kProcessCrashed && c.proc == f.proc &&
          c.time <= f.time && (crash_time == kNoTime || c.time > crash_time)) {
        crash_time = c.time;
      }
    }
    const OperationRecord* first = nullptr;
    for (const OperationRecord& rec : trace.ops) {
      if (rec.proc != f.proc || !rec.completed()) continue;
      if (rec.invoke_time < f.time) continue;
      if (!first || rec.response_time < first->response_time) first = &rec;
    }
    if (!first) continue;  // workload drained before this recovery
    if (crash_time != kNoTime) {
      const Tick gap = first->response_time - crash_time;
      if (out.worst_crash_to_response == kNoTime ||
          gap > out.worst_crash_to_response) {
        out.worst_crash_to_response = gap;
      }
    }
    const Tick latency = first->response_time - first->invoke_time;
    if (out.worst_rejoin_latency == kNoTime ||
        latency > out.worst_rejoin_latency) {
      out.worst_rejoin_latency = latency;
    }
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
  const Tick serve =
      std::max({delays.self_add + delays.holdback, delays.mop_ack,
                delays.aop_respond});
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
  result.oop_bound = delays.self_add + delays.holdback;
  result.mop_bound = delays.mop_ack;
  result.aop_bound = delays.aop_respond;
  result.recovery_bound =
      churn_recovery_bound(options.timing, options.recoverable, delays);

  // The workload runs from t=1000 for roughly ops * (worst-op + think)
  // ticks; churn defaults to covering that window so crashes land while
  // operations are in flight.
  const Tick churn_start = options.churn_start > 0
                               ? options.churn_start
                               : 1000 + result.oop_bound;
  const Tick churn_horizon =
      options.churn_horizon > 0
          ? options.churn_horizon
          : 1000 + static_cast<Tick>(options.ops_per_client) *
                       (result.oop_bound + options.think_time);

  // Same derivation style as run_fault_sweep: delay and workload randomness
  // depend only on the seed index, so every cell replays the same delays
  // and client scripts -- churn intensity is the only thing that varies.
  const auto delay_seed = [&](int seed) {
    return options.base_seed +
           0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(seed);
  };
  const auto workload_seed = [&](int seed) {
    return options.base_seed ^
           (0xd1b54a32d192ed03ULL +
            0x2545f4914f6cdd1dULL * static_cast<std::uint64_t>(seed));
  };

  // One task per (cell, seed); execution order is irrelevant because each
  // run builds everything it touches from seed-derived values.  Aggregation
  // below walks the results in the serial sweep's (cell, seed) order.
  const ParallelSweepExecutor executor(options.jobs);
  const std::size_t seeds = static_cast<std::size_t>(options.seeds);
  const std::vector<OneChurnRun> grid_runs = executor.map<OneChurnRun>(
      cells.size() * seeds, [&](std::size_t i) {
        const std::size_t ci = i / seeds;
        const int seed = static_cast<int>(i % seeds);
        ChurnConfig churn;
        churn.mean_uptime = cells[ci].mean_uptime;
        churn.mean_downtime = cells[ci].mean_downtime;
        churn.start = churn_start;
        churn.horizon = churn_horizon;
        const std::uint64_t churn_seed = options.base_seed +
                                         0xbf58476d1ce4e5b9ULL * (ci + 1) +
                                         static_cast<std::uint64_t>(seed);
        return run_one(model, workload, options, churn, churn_seed,
                       delay_seed(seed), workload_seed(seed),
                       result.recovery_bound);
      });

  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    ChurnCellResult cell_result;
    cell_result.cell = cells[ci];
    for (int seed = 0; seed < options.seeds; ++seed) {
      const OneChurnRun& run =
          grid_runs[ci * seeds + static_cast<std::size_t>(seed)];

      ++cell_result.runs;
      if (run.linearizable) ++cell_result.linearizable;
      cell_result.invocations += run.invocations;
      cell_result.answered += run.answered;
      cell_result.crashes += run.crashes;
      cell_result.recoveries += run.recoveries;
      cell_result.reissued += run.reissued;
      cell_result.rejoin_bound_violations += run.rejoin_bound_violations;
      cell_result.survivor_bound_violations += run.survivor_bound_violations;
      if (run.worst_crash_to_response != kNoTime &&
          (cell_result.worst_crash_to_response == kNoTime ||
           run.worst_crash_to_response > cell_result.worst_crash_to_response)) {
        cell_result.worst_crash_to_response = run.worst_crash_to_response;
      }
      if (run.worst_rejoin_latency != kNoTime &&
          (cell_result.worst_rejoin_latency == kNoTime ||
           run.worst_rejoin_latency > cell_result.worst_rejoin_latency)) {
        cell_result.worst_rejoin_latency = run.worst_rejoin_latency;
      }
      if (run.report.violated(Assumption::kRecovering)) {
        ++cell_result.runs_with_recovering_attribution;
      }
      if (run.flagged()) {
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
