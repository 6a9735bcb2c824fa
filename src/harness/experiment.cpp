#include "harness/experiment.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "degrade/degrade_system.h"
#include "fault/churn.h"

namespace linbound {

namespace {

/// Virtual-time slice between watchdog checks.  Part of the run's
/// definition: run_until stamps the trace end time with the slice horizon,
/// so every run of a spec (chaos record, replay and both determinism runs)
/// must use the same value.
constexpr Tick kWatchdogSlice = 50'000;

/// Fill the measure's operation and fault-event tally from the trace.
void tally_events(const Trace& trace, RunMeasure* out) {
  out->invoked = static_cast<std::int64_t>(trace.ops.size());
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    if (trace.ops.completed(i)) ++out->answered;
  }
  Tick last_downgrade = kNoTime;
  for (const FaultEvent& f : trace.faults) {
    if (f.kind == FaultKind::kModeDowngrade) {
      last_downgrade = std::max(last_downgrade, f.time);
    }
  }
  int down = 0;
  bool degraded = false;
  for (const FaultEvent& f : trace.faults) {
    switch (f.kind) {
      case FaultKind::kModeDowngrade:
        ++out->downgrades;
        degraded = true;
        break;
      case FaultKind::kModeUpgrade:
        ++out->upgrades;
        degraded = false;
        break;
      case FaultKind::kProcessCrashed:
        ++out->crashes;
        ++down;
        out->max_concurrent_down = std::max(out->max_concurrent_down, down);
        if (!degraded && last_downgrade < f.time) {
          ++out->crashes_outside_degraded;
        }
        break;
      case FaultKind::kProcessRecovered:
        --down;
        break;
      default:
        break;
    }
  }
  out->down_at_end = down;
}

}  // namespace

Simulation simulate(RunSpec spec) {
  Simulation out;
  SystemOptions sys;
  sys.n = spec.n;
  sys.timing = spec.timing;
  sys.x = spec.x;
  sys.delays = std::move(spec.delays);
  sys.clock_offsets = std::move(spec.clock_offsets);
  sys.faults = std::move(spec.fault_policy);
  sys.algorithm_delays = std::move(spec.algorithm_delays);
  sys.max_events = spec.event_budget;
  spec.reliable.link.spike_margin = spec.faults.max_delay_boost();
  // The switching variant rides the same reliable link in its sync eras; the
  // margin keeps pre-downgrade responses inside the widened model while the
  // supervisor gathers its evidence (spiked deliveries still land past the
  // raw d, so they count as violations).
  if (spec.variant == ChaosVariant::kHardened ||
      spec.variant == ChaosVariant::kModeSwitching) {
    sys.hardened = spec.reliable.link;
  }
  if (spec.variant == ChaosVariant::kRecoverable) {
    sys.recoverable = spec.reliable;
  }
  if (degradation_variant(spec.variant)) {
    DegradeOptions dopt;
    dopt.base = std::move(sys);
    dopt.switching = spec.variant == ChaosVariant::kModeSwitching;
    out.system = std::make_unique<DegradeSystem>(std::move(spec.model), dopt);
  } else {
    auto rs = std::make_unique<ReplicaSystem>(std::move(spec.model), sys);
    out.algorithm_delays = &rs->algorithm_delays();
    out.system = std::move(rs);
  }

  // The driver's part ends with the run: nothing after simulate() runs the
  // sim.
  Simulator& sim = out.system->sim();
  WorkloadDriver driver(sim, std::move(spec.scripts), {}, {},
                        spec.reissue_cut_ops);
  driver.arm();
  if (spec.faults.churn.any()) {
    make_churn_schedule(spec.faults, spec.n).apply(sim);
  }

  // The watchdog loop: advance in fixed virtual-time slices, checking the
  // wall clock between slices.  The event budget is the simulator's own
  // max_events, so a budget abort lands after *exactly* event_budget events
  // -- deterministic, hence shrinkable; a wall-clock trip is not.
  sim.start();
  Tick horizon = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  for (;;) {
    horizon += kWatchdogSlice;
    if (!sim.event_queue().empty() && sim.event_queue().next_time() > horizon) {
      // Nothing due this slice; jump to the next event (the horizon only
      // stamps the trace at the end of the run).
      horizon = sim.event_queue().next_time();
    }
    out.drained = sim.run_until(horizon);
    if (out.drained) break;
    if (sim.events_processed() >= spec.event_budget) break;
    if (spec.wall_budget_ms > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - wall_start);
      if (elapsed.count() > spec.wall_budget_ms) {
        out.wall_clock_tripped = true;
        break;
      }
    }
  }
  out.reissued = driver.reissued();
  return out;
}

RunMeasure measure(const Simulation& run) {
  const Trace& trace = run.trace();
  ObjectSystem& system = *run.system;
  RunMeasure out;
  out.reissued = run.reissued;
  auto [history, pending] = history_with_pending(trace);
  out.status = !run.drained ? RunStatus::kAborted
               : pending.empty() ? RunStatus::kComplete
                                 : RunStatus::kStalled;
  CheckResult check = check_linearizable_with_pending(system.model(), history,
                                                      pending, CheckOptions{});
  out.linearizable = check.ok;
  out.explanation = std::move(check.explanation);
  out.report = audit_assumptions(trace);
  // Covers the mode-switching replica too: it *is* a hardened replica in its
  // synchronous eras.
  for (int pid = 0; pid < system.n(); ++pid) {
    if (const auto* h = dynamic_cast<const HardenedReplicaProcess*>(
            &system.sim().process(pid))) {
      out.link_give_ups += h->link_give_ups();
      out.retransmissions += h->retransmissions();
      out.duplicates_suppressed += h->duplicates_suppressed();
    }
  }
  tally_events(trace, &out);
  return out;
}

RunSpec grid_run_spec(std::shared_ptr<const ObjectModel> model, int n,
                      const SystemTiming& timing, Tick x,
                      const WorkloadFactory& workload, const GridSeeds& seeds,
                      int seed, const FaultConfig& faults,
                      ChaosVariant variant) {
  RunSpec spec;
  spec.model = std::move(model);
  spec.n = n;
  spec.timing = timing;
  spec.x = x;
  spec.variant = variant;
  spec.delays = std::make_shared<UniformDelayPolicy>(timing, seeds.delay(seed));
  if (faults.any()) spec.fault_policy = make_fault_policy(faults);
  spec.faults = faults;
  spec.scripts = client_scripts(n, Rng(seeds.workload(seed)),
                                /*think_time=*/0, workload);
  return spec;
}

namespace {

enum class PolicyKind { kAllMax, kAllMin, kUniform, kExtremal };
enum class OffsetKind { kZero, kAlternating, kRandom };

std::shared_ptr<DelayPolicy> make_policy(PolicyKind kind, const SystemTiming& timing,
                                         std::uint64_t seed) {
  switch (kind) {
    case PolicyKind::kAllMax:
      return std::make_shared<FixedDelayPolicy>(timing.max_delay());
    case PolicyKind::kAllMin:
      return std::make_shared<FixedDelayPolicy>(timing.min_delay());
    case PolicyKind::kUniform:
      return std::make_shared<UniformDelayPolicy>(timing, seed);
    case PolicyKind::kExtremal:
      return std::make_shared<ExtremalDelayPolicy>(timing, seed);
  }
  return nullptr;
}

std::vector<Tick> make_offsets(OffsetKind kind, int n, const SystemTiming& timing,
                               Rng& rng) {
  std::vector<Tick> out(static_cast<std::size_t>(n), 0);
  switch (kind) {
    case OffsetKind::kZero:
      break;
    case OffsetKind::kAlternating:
      for (int i = 0; i < n; ++i) {
        out[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 0 : timing.eps;
      }
      break;
    case OffsetKind::kRandom:
      // Offsets in [0, eps] keep every pairwise skew within eps.
      for (int i = 0; i < n; ++i) {
        out[static_cast<std::size_t>(i)] = rng.uniform_tick(0, timing.eps);
      }
      break;
  }
  return out;
}

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kAllMax:
      return "all-max";
    case PolicyKind::kAllMin:
      return "all-min";
    case PolicyKind::kUniform:
      return "uniform";
    case PolicyKind::kExtremal:
      return "extremal";
  }
  return "?";
}

const char* offset_name(OffsetKind kind) {
  switch (kind) {
    case OffsetKind::kZero:
      return "zero";
    case OffsetKind::kAlternating:
      return "alternating";
    case OffsetKind::kRandom:
      return "random";
  }
  return "?";
}

/// Append the run's admissibility audit (offending messages named with
/// endpoints, send tick and observed delay) and, for matrix policies, any
/// out-of-bound matrix entries -- so a failure log says *why* the schedule
/// was hostile, not just that the checker said no.
void append_run_diagnostics(std::ostringstream& os, const Trace& trace,
                            const DelayPolicy* delays,
                            const SystemTiming& timing) {
  const AdmissibilityReport audit = trace.audit();
  for (const std::string& violation : audit.violations) {
    os << "\n    audit: " << violation;
  }
  if (const auto* matrix = dynamic_cast<const MatrixDelayPolicy*>(delays)) {
    for (const auto& [from, to] : matrix->invalid_entries(timing)) {
      os << "\n    delay matrix: entry (" << from << " -> " << to << ") = "
         << matrix->get(from, to) << " outside [" << timing.min_delay() << ", "
         << timing.max_delay() << "]";
    }
  }
}

/// One cell of the adversary grid, fully determined by its indices: the
/// run_id fixes the Rng, which fixes policies, offsets and workloads.
struct SweepTask {
  PolicyKind policy;
  OffsetKind offset;
  int rep;
  std::uint64_t run_id;
};

/// What one run contributes to the aggregate; merged in canonical task
/// order so serial and parallel sweeps produce byte-identical results.
struct SweepRunOutcome {
  bool ok = false;
  std::string failure;
  LatencyReport latency;
};

std::vector<SweepTask> make_sweep_tasks(const SweepOptions& options) {
  const PolicyKind policies[] = {PolicyKind::kAllMax, PolicyKind::kAllMin,
                                 PolicyKind::kUniform, PolicyKind::kExtremal};
  const OffsetKind offsets[] = {OffsetKind::kZero, OffsetKind::kAlternating,
                                OffsetKind::kRandom};
  std::vector<SweepTask> tasks;
  std::uint64_t run_id = 0;
  for (PolicyKind policy : policies) {
    for (OffsetKind offset : offsets) {
      const bool randomized =
          policy == PolicyKind::kUniform || policy == PolicyKind::kExtremal ||
          offset == OffsetKind::kRandom;
      const int reps = randomized ? options.seeds : 1;
      for (int rep = 0; rep < reps; ++rep, ++run_id) {
        tasks.push_back(SweepTask{policy, offset, rep, run_id});
      }
    }
  }
  return tasks;
}

template <typename SystemT>
SweepRunOutcome run_sweep_task(const std::shared_ptr<const ObjectModel>& model,
                               const WorkloadFactory& workload,
                               const SweepOptions& options,
                               const SweepTask& task) {
  Rng rng(options.base_seed + task.run_id * 0x9e3779b97f4a7c15ull);

  SystemOptions sys;
  sys.n = options.n;
  sys.timing = options.timing;
  sys.x = options.x;
  sys.delays = make_policy(task.policy, options.timing, rng.next_u64());
  sys.clock_offsets = make_offsets(task.offset, options.n, options.timing, rng);

  SystemT system(model, sys);

  WorkloadDriver driver(system.sim(), client_scripts(options.n, rng,
                                                     /*think_time=*/0, workload));
  driver.arm();

  History history = system.run_to_completion();
  const CheckResult check = check_linearizable(*model, history);

  SweepRunOutcome outcome;
  outcome.ok = check.ok;
  if (!check.ok) {
    std::ostringstream os;
    os << "policy=" << policy_name(task.policy)
       << " offsets=" << offset_name(task.offset) << " rep=" << task.rep
       << ": " << check.explanation;
    append_run_diagnostics(os, system.sim().trace(), sys.delays.get(),
                           options.timing);
    outcome.failure = os.str();
  }
  outcome.latency.absorb(*model, system.sim().trace());
  return outcome;
}

template <typename SystemT>
SweepResult run_sweep_impl(const std::shared_ptr<const ObjectModel>& model,
                           const WorkloadFactory& workload,
                           const SweepOptions& options) {
  const std::vector<SweepTask> tasks = make_sweep_tasks(options);
  const ParallelSweepExecutor executor(options.jobs);
  std::vector<SweepRunOutcome> outcomes = executor.map<SweepRunOutcome>(
      tasks.size(), [&](std::size_t i) {
        return run_sweep_task<SystemT>(model, workload, options, tasks[i]);
      });

  // Aggregate serially in canonical task order: byte-identical at any
  // jobs count.
  SweepResult result;
  for (SweepRunOutcome& outcome : outcomes) {
    ++result.runs;
    if (outcome.ok) {
      ++result.linearizable_runs;
    } else {
      result.failures.push_back(std::move(outcome.failure));
    }
    result.latency.merge(outcome.latency);
  }
  return result;
}

}  // namespace

SweepResult run_replica_sweep(const std::shared_ptr<const ObjectModel>& model,
                              const WorkloadFactory& workload,
                              const SweepOptions& options) {
  return run_sweep_impl<ReplicaSystem>(model, workload, options);
}

SweepResult run_centralized_sweep(const std::shared_ptr<const ObjectModel>& model,
                                  const WorkloadFactory& workload,
                                  const SweepOptions& options) {
  return run_sweep_impl<CentralizedSystem>(model, workload, options);
}

SweepResult run_tob_sweep(const std::shared_ptr<const ObjectModel>& model,
                          const WorkloadFactory& workload,
                          const SweepOptions& options) {
  return run_sweep_impl<TobSystem>(model, workload, options);
}

}  // namespace linbound
