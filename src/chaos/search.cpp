#include "chaos/search.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/parallel.h"
#include "harness/mode_sweep.h"

namespace linbound {
namespace {

/// One covered fault cell of the hardened grid.
FaultConfig drop_cell(double p) {
  FaultConfig f;
  f.drop_p = p;
  return f;
}

FaultConfig dup_cell(double p, int copies) {
  FaultConfig f;
  f.dup_p = p;
  f.dup_copies = copies;
  return f;
}

FaultConfig spike_cell(double p, Tick max) {
  FaultConfig f;
  f.spike_p = p;
  f.spike_max = max;
  return f;
}

FaultConfig mix_cell(const SystemTiming& t) {
  FaultConfig f;
  f.drop_p = 0.10;
  f.dup_p = 0.10;
  f.spike_p = 0.05;
  f.spike_max = t.u > 0 ? t.u : t.d / 2;
  return f;
}

/// A split-brain window early in the run, healed well inside the link's
/// retransmission budget (first timeout ~2d, six attempts: a 2d partition
/// is absorbed with room to spare).
FaultConfig partition_cell(const SystemTiming& t, int n) {
  FaultConfig f;
  PartitionWindow w;
  w.from = 1500;
  w.until = w.from + 2 * t.d;
  w.component_of.assign(static_cast<std::size_t>(n), 0);
  w.component_of[0] = 1;  // process 0 alone vs the rest
  f.partitions.push_back(std::move(w));
  return f;
}

/// Asymmetric per-link loss plus a lossy-and-slow reverse direction.
FaultConfig link_cell(const SystemTiming& t) {
  FaultConfig f;
  f.links.push_back(LinkFault{0, 1, /*drop_p=*/0.25, /*delay_p=*/0.0, 0});
  f.links.push_back(
      LinkFault{1, 0, /*drop_p=*/0.10, /*delay_p=*/0.25, /*delay_max=*/t.u});
  return f;
}

/// One process frozen for a while mid-run (outside every variant's
/// guarantee -- exercises the abort/determinism oracles and replay, not the
/// linearizability gate).
FaultConfig stall_cell(const SystemTiming& t) {
  FaultConfig f;
  f.stalls.push_back(StallWindow{0, 2000, 2000 + 3 * t.d});
  return f;
}

/// Crash-recovery churn: one process down at a time, downtime a couple of
/// delivery bounds -- within what the rejoin protocol plus retransmission
/// budget cover (cf. tests/test_fuzz.cpp's crash-recovery rounds).
FaultConfig churn_cell(const SystemTiming& t, double drop_p) {
  FaultConfig f;
  f.drop_p = drop_p;
  f.churn.mean_uptime = 8 * t.d;
  f.churn.mean_downtime = 2 * t.d;
  f.churn.start = 1000;
  f.churn.horizon = 14 * t.d;
  f.churn.max_down = 1;
  return f;
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::vector<ChaosRunSpec> chaos_search_grid(const ChaosSearchOptions& options) {
  std::vector<ChaosVariant> variants = options.variants;
  if (variants.empty()) {
    variants = {ChaosVariant::kStock, ChaosVariant::kHardened,
                ChaosVariant::kRecoverable, ChaosVariant::kModeSwitching,
                ChaosVariant::kQuorum};
  }
  // A planted mutant pins the variant it lives in.
  switch (options.mutant) {
    case ChaosMutant::kNone:
      break;
    case ChaosMutant::kEagerMop:
    case ChaosMutant::kEagerAop:
      variants = {ChaosVariant::kStock};
      break;
    case ChaosMutant::kNarrowWaits:
      variants = {ChaosVariant::kHardened};
      break;
  }

  const SystemTiming& t = options.timing;
  std::vector<ChaosRunSpec> grid;
  for (const ChaosVariant variant : variants) {
    std::vector<FaultConfig> cells;
    std::vector<ChaosWorkload> workloads;
    switch (variant) {
      case ChaosVariant::kStock:
        // The guarantee is unconditional only in the fault-free model; the
        // adversary here is the delay schedule and the clock offsets.
        cells = {FaultConfig{}};
        workloads = {ChaosWorkload::kRegister, ChaosWorkload::kQueue,
                     ChaosWorkload::kSet};
        break;
      case ChaosVariant::kHardened:
        cells = {drop_cell(0.15),
                 dup_cell(0.20, 2),
                 spike_cell(0.15, t.u > 0 ? t.u : t.d / 2),
                 partition_cell(t, options.n),
                 link_cell(t),
                 stall_cell(t),
                 mix_cell(t)};
        workloads = {ChaosWorkload::kRegister, ChaosWorkload::kQueue};
        break;
      case ChaosVariant::kRecoverable:
        cells = {churn_cell(t, 0.0), churn_cell(t, 0.05)};
        workloads = {ChaosWorkload::kRegister, ChaosWorkload::kQueue};
        break;
      case ChaosVariant::kModeSwitching:
        // Weather bad enough to trip the supervisor, tame enough to heal:
        // the liveness oracle then demands completion through the switch.
        cells = {spike_cell(0.25, 4 * t.d), partition_cell(t, options.n),
                 full_storm(t, options.n)};
        workloads = {ChaosWorkload::kRegister, ChaosWorkload::kQueue};
        break;
      case ChaosVariant::kQuorum:
        // Safety is unconditional, so the heaviest cells go here.
        cells = {drop_cell(0.15), spike_cell(0.25, 4 * t.d),
                 partition_cell(t, options.n), churn_cell(t, 0.05)};
        workloads = {ChaosWorkload::kRegister, ChaosWorkload::kQueue};
        break;
    }
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      for (const ChaosWorkload workload : workloads) {
        for (int seed = 0; seed < options.seeds; ++seed) {
          ChaosRunSpec spec;
          spec.n = options.n;
          spec.timing = t;
          spec.x = options.x;
          spec.variant = variant;
          spec.mutant = options.mutant;
          spec.workload = workload;
          spec.ops_per_client = options.ops_per_client;
          spec.event_budget = kChaosSearchEventBudget;
          // A covered cell must size its watchdog to the variant too: under
          // a persistent spike barrage the supervisor legitimately cycles
          // the era machinery thousands of times before the run drains
          // (~600k events at an unlucky seed), so the fixed-mode budget
          // would turn weather into a spurious kAborted finding -- whose
          // ~70k-decision script the shrinker then chews on for minutes.
          if (variant == ChaosVariant::kModeSwitching) {
            spec.event_budget *= 10;
          }
          spec.wall_budget_ms = options.wall_budget_ms;
          spec.faults = cells[ci];
          // Every random ingredient gets its own stream, derived from the
          // grid coordinates alone: the same options reproduce the same
          // grid, and cell (ci) never perturbs cell (ci+1).
          const std::uint64_t salt =
              mix64(options.base_seed +
                    0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(seed));
          spec.delay_seed = salt ^ mix64(ci + 1);
          spec.workload_seed =
              mix64(salt + static_cast<std::uint64_t>(workload) + 17);
          spec.faults.seed = mix64(spec.delay_seed + 0xfa017);
          grid.push_back(std::move(spec));
        }
      }
    }
  }
  return grid;
}

std::string ChaosSearchResult::summary() const {
  std::ostringstream os;
  os << runs << " specs run, " << violations << " violations ("
     << reproducible << " reproducible, " << wall_trips << " wall trips)";
  if (truncated) os << " [time budget truncated the grid]";
  os << "\n";
  for (const ChaosFinding& f : findings) {
    os << "  " << chaos_verdict_name(f.result.verdict) << " "
       << chaos_variant_name(f.spec.variant) << "/"
       << chaos_workload_name(f.spec.workload)
       << " mutant=" << chaos_mutant_name(f.spec.mutant)
       << " delay_seed=" << f.spec.delay_seed
       << " script=" << f.result.script.size() << " decisions: "
       << f.result.detail << "\n";
  }
  return os.str();
}

ChaosSearchResult run_chaos_search(const ChaosSearchOptions& options) {
  const std::vector<ChaosRunSpec> grid = chaos_search_grid(options);
  const ParallelSweepExecutor executor(options.jobs);
  ChaosSearchResult result;

  // Waves of tasks: inside a wave the executor may reorder freely (results
  // land in canonical slots); between waves we check the time budget.  A
  // fixed budget of 0 runs every wave, making the whole search a pure
  // function of the options.
  const std::size_t wave =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::max(1, options.jobs)) *
                                   4);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t base = 0; base < grid.size(); base += wave) {
    if (options.time_budget_s > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() > options.time_budget_s) {
        result.truncated = true;
        break;
      }
    }
    const std::size_t count = std::min(wave, grid.size() - base);
    const std::vector<ChaosRunResult> wave_results =
        executor.map<ChaosRunResult>(count, [&](std::size_t i) {
          return run_chaos(grid[base + i]);
        });
    for (std::size_t i = 0; i < count; ++i) {
      const ChaosRunResult& r = wave_results[i];
      ++result.runs;
      if (r.wall_clock_tripped) ++result.wall_trips;
      if (!r.violation()) continue;
      ++result.violations;
      if (r.reproducible_violation()) {
        ++result.reproducible;
        if (static_cast<int>(result.findings.size()) < options.max_findings) {
          result.findings.push_back(ChaosFinding{grid[base + i], r});
        }
      }
    }
  }
  return result;
}

}  // namespace linbound
