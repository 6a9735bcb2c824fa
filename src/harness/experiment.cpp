#include "harness/experiment.h"

#include <sstream>

namespace linbound {

RunVerdict check_run(ObjectSystem& system) {
  const RunOutcome outcome = system.run_with_outcome();
  CheckResult check = check_linearizable_with_pending(
      system.model(), outcome.history, outcome.pending);
  return RunVerdict{outcome.status, check.ok, std::move(check.explanation)};
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
