// Churn schedules (fault/churn.h), their composition with FaultConfig, the
// determinism-regression guarantee (identical config + seed => byte-identical
// serialized traces, fault events included), kRecovering attribution, the
// enum exhaustiveness checks, and a churn-sweep smoke run.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "checker/lin_checker.h"
#include "core/driver.h"
#include "core/system.h"
#include "core/workload.h"
#include "fault/assumption_monitor.h"
#include "fault/churn.h"
#include "fault/fault_policy.h"
#include "harness/churn_sweep.h"
#include "sim/trace_io.h"
#include "types/register_type.h"

namespace linbound {
namespace {

ChurnConfig busy_churn() {
  ChurnConfig c;
  c.mean_uptime = 4000;
  c.mean_downtime = 1500;
  c.start = 1000;
  c.horizon = 50000;
  return c;
}

bool overlap(const ChurnWindow& a, const ChurnWindow& b) {
  return a.crash_time < b.recover_time && b.crash_time < a.recover_time;
}

bool same_windows(const ChurnSchedule& a, const ChurnSchedule& b) {
  if (a.windows().size() != b.windows().size()) return false;
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    const ChurnWindow& x = a.windows()[i];
    const ChurnWindow& y = b.windows()[i];
    if (x.pid != y.pid || x.crash_time != y.crash_time ||
        x.recover_time != y.recover_time) {
      return false;
    }
  }
  return true;
}

TEST(ChurnSchedule, DeterministicFromConfigAndSeed) {
  const ChurnConfig config = busy_churn();
  const ChurnSchedule a = ChurnSchedule::generate(config, 4, 42);
  const ChurnSchedule b = ChurnSchedule::generate(config, 4, 42);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(same_windows(a, b));
  const ChurnSchedule c = ChurnSchedule::generate(config, 4, 43);
  EXPECT_FALSE(same_windows(a, c));
}

TEST(ChurnSchedule, ZeroConfigProducesNoWindows) {
  EXPECT_FALSE(ChurnConfig{}.any());
  EXPECT_TRUE(ChurnSchedule::generate(ChurnConfig{}, 4, 1).empty());
  ChurnConfig no_horizon = busy_churn();
  no_horizon.horizon = no_horizon.start;  // empty crash interval
  EXPECT_FALSE(no_horizon.any());
  EXPECT_TRUE(ChurnSchedule::generate(no_horizon, 4, 1).empty());
}

TEST(ChurnSchedule, WindowsRespectStartHorizonAndOrdering) {
  const ChurnConfig config = busy_churn();
  const ChurnSchedule s = ChurnSchedule::generate(config, 5, 7);
  ASSERT_FALSE(s.empty());
  Tick prev = kNoTime;
  for (const ChurnWindow& w : s.windows()) {
    EXPECT_GE(w.crash_time, config.start);
    EXPECT_LT(w.crash_time, config.horizon);
    EXPECT_GT(w.recover_time, w.crash_time);
    if (prev != kNoTime) {
      EXPECT_LE(prev, w.crash_time);  // sorted
    }
    prev = w.crash_time;
  }
}

TEST(ChurnSchedule, MaxDownCapsSimultaneousCrashes) {
  ChurnConfig config = busy_churn();
  config.mean_uptime = 1500;  // aggressive: plenty of candidate overlap
  config.max_down = 1;
  const ChurnSchedule s = ChurnSchedule::generate(config, 6, 11);
  ASSERT_FALSE(s.empty());
  const auto& w = s.windows();
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = i + 1; j < w.size(); ++j) {
      EXPECT_FALSE(overlap(w[i], w[j]))
          << "p" << w[i].pid << " [" << w[i].crash_time << ", "
          << w[i].recover_time << ") overlaps p" << w[j].pid << " ["
          << w[j].crash_time << ", " << w[j].recover_time << ")";
    }
  }
}

TEST(ChurnSchedule, PerProcessStreamsAreIndependent) {
  // Adding a process must not reshuffle the existing processes' windows.
  // With max_down effectively unbounded the admission filter never drops a
  // candidate, so the generated windows are the pure per-pid streams.
  ChurnConfig loose = busy_churn();
  loose.max_down = 100;  // admission never drops: pure per-pid streams
  const ChurnSchedule a = ChurnSchedule::generate(loose, 3, 9);
  const ChurnSchedule b = ChurnSchedule::generate(loose, 4, 9);
  for (const ChurnWindow& w : a.windows()) {
    bool found = false;
    for (const ChurnWindow& v : b.windows()) {
      if (v.pid == w.pid && v.crash_time == w.crash_time &&
          v.recover_time == w.recover_time) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "pid " << w.pid << " window reshuffled by n=4";
  }
}

TEST(ChurnSchedule, FaultConfigChurnStreamIsDisjointFromMessageFaults) {
  // Enabling churn must not reshuffle which messages the drop/dup/spike
  // streams hit (disjoint splits), and the churn stream itself must not
  // depend on the message-fault knobs.
  FaultConfig quiet;
  quiet.seed = 123;
  quiet.churn = busy_churn();
  FaultConfig noisy = quiet;
  noisy.drop_p = 0.5;
  noisy.dup_p = 0.5;
  EXPECT_TRUE(same_windows(make_churn_schedule(quiet, 4),
                           make_churn_schedule(noisy, 4)));
  EXPECT_FALSE(make_churn_schedule(quiet, 4).empty());
  // No churn knobs -> no windows.
  FaultConfig plain;
  plain.seed = 123;
  EXPECT_TRUE(make_churn_schedule(plain, 4).empty());
}

SystemOptions churn_system_options() {
  SystemOptions o;
  o.n = 4;
  o.timing = SystemTiming{1000, 400, 100};
  RecoverableParams rp;
  rp.link.max_attempts = 3;
  o.recoverable = rp;
  return o;
}

/// One churned driver run; returns the serialized trace.
std::string churned_run(const FaultConfig& config, Trace* out = nullptr) {
  auto model = std::make_shared<RegisterModel>();
  SystemOptions o = churn_system_options();
  o.faults = make_fault_policy(config);
  ReplicaSystem system(model, o);

  std::vector<ClientScript> scripts;
  Rng rng(config.seed);
  for (ProcessId p = 0; p < o.n; ++p) {
    Rng crng = rng.split(static_cast<std::uint64_t>(p) + 100);
    scripts.push_back({p, random_register_ops(crng, 6, OpMix{2, 2, 2}),
                       1000 + 500 * p, 200});
  }
  WorkloadDriver driver(system.sim(), std::move(scripts));
  driver.arm();
  make_churn_schedule(config, o.n).apply(system.sim());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());
  if (out != nullptr) *out = system.sim().trace();
  return trace_to_string(system.sim().trace());
}

TEST(ChurnDeterminism, IdenticalConfigAndSeedGiveByteIdenticalTraces) {
  // The determinism regression of the fault subsystem, extended to churn:
  // identical FaultConfig (message faults AND churn) + identical seed =>
  // byte-identical serialized traces, fault events included.
  FaultConfig config;
  config.seed = 2026;
  config.drop_p = 0.02;
  config.churn.mean_uptime = 20000;
  config.churn.mean_downtime = 4000;
  config.churn.start = 2000;
  config.churn.horizon = 40000;

  Trace trace;
  const std::string first = churned_run(config, &trace);
  const std::string second = churned_run(config);
  EXPECT_EQ(first, second);

  // The serialization carries the churn events...
  ASSERT_FALSE(trace.faults.empty());
  const std::string recovered_line =
      std::string("fault ") + fault_kind_name(FaultKind::kProcessRecovered);
  EXPECT_NE(first.find(recovered_line), std::string::npos);

  // ...and round-trips exactly.
  std::string error;
  std::optional<Trace> parsed = trace_from_string(first, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->faults.size(), trace.faults.size());
  for (std::size_t i = 0; i < trace.faults.size(); ++i) {
    EXPECT_EQ(parsed->faults[i].kind, trace.faults[i].kind);
    EXPECT_EQ(parsed->faults[i].time, trace.faults[i].time);
    EXPECT_EQ(parsed->faults[i].proc, trace.faults[i].proc);
  }
  EXPECT_EQ(trace_to_string(*parsed), first);

  // A different seed produces a different run.
  FaultConfig other = config;
  other.seed = 2027;
  EXPECT_NE(churned_run(other), first);
}

TEST(ChurnRun, LinearizableAndAttributedToRecovering) {
  // Churn only (no message faults): the run stays linearizable under the
  // pending-aware checker (cut-and-reissued ops accepted) and the
  // assumption monitor attributes the churn to kRecovering.
  FaultConfig config;
  config.seed = 7;
  config.churn.mean_uptime = 25000;
  config.churn.mean_downtime = 3000;
  config.churn.start = 2000;
  config.churn.horizon = 60000;

  Trace trace;
  churned_run(config, &trace);
  ASSERT_FALSE(trace.faults.empty());

  auto model = std::make_shared<RegisterModel>();
  auto [history, pending] = history_with_pending(trace);
  const CheckResult check =
      check_linearizable_with_pending(*model, history, pending);
  EXPECT_TRUE(check.ok) << check.explanation;

  const AssumptionReport report = audit_assumptions(trace);
  EXPECT_TRUE(report.violated(Assumption::kRecovering)) << report.summary();
  // Every crash in this schedule recovers, so none is a permanent failure.
  EXPECT_FALSE(report.violated(Assumption::kFailureFree)) << report.summary();
}

TEST(ChurnSweep, SmokeRunHoldsAllFourClaims) {
  ChurnSweepOptions options;
  options.n = 3;
  options.timing = SystemTiming{1000, 400, 100};
  options.seeds = 2;
  options.ops_per_client = 6;
  options.recoverable.link.max_attempts = 2;
  const Tick d_eff =
      options.recoverable.link.effective_d(options.timing);
  options.cells = {{8 * d_eff, d_eff}};

  auto model = std::make_shared<RegisterModel>();
  WorkloadFactory workload = [&](ProcessId, Rng& rng) {
    return random_register_ops(rng, options.ops_per_client, OpMix{2, 2, 2});
  };
  const ChurnSweepResult result = run_churn_sweep(model, workload, options);

  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].runs, 2);
  EXPECT_GT(result.cells[0].invocations, 0);
  EXPECT_TRUE(result.all_linearizable());
  EXPECT_TRUE(result.survivors_within_bounds());
  EXPECT_TRUE(result.recovery_bounded());
  EXPECT_TRUE(result.churn_attributed());
  EXPECT_TRUE(result.ok()) << result.table();
}

TEST(Exhaustiveness, EveryAssumptionHasADistinctName) {
  std::set<std::string> names;
  for (int a = 0; a < static_cast<int>(Assumption::kAssumptionCount); ++a) {
    const std::string name = assumption_name(static_cast<Assumption>(a));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?") << "assumption " << a << " missing a name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(Assumption::kAssumptionCount));
  EXPECT_TRUE(names.count("recovering"));
}

TEST(Exhaustiveness, EveryFaultKindNameRoundTrips) {
  std::set<std::string> names;
  for (int k = 0; k < static_cast<int>(FaultKind::kFaultKindCount); ++k) {
    const FaultKind kind = static_cast<FaultKind>(k);
    const std::string name = fault_kind_name(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?") << "fault kind " << k << " missing a name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_EQ(fault_kind_from_name(name), kind);
  }
  EXPECT_EQ(fault_kind_from_name("no-such-kind"), FaultKind::kFaultKindCount);
}

}  // namespace
}  // namespace linbound
