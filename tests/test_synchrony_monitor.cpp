// The synchrony supervisor in isolation: clean runs leave no footprint
// (byte-identical traces with and without a monitor attached), envelope
// violations are counted and downgrade with hysteresis, healed storms
// upgrade back after the clean window, and static clock skew past eps is a
// permanent downgrade.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/driver.h"
#include "core/system.h"
#include "core/workload.h"
#include "degrade/synchrony_monitor.h"
#include "fault/fault_policy.h"
#include "sim/trace_io.h"
#include "types/register_type.h"

namespace linbound {
namespace {

constexpr SystemTiming kTiming{1000, 400, 300};

struct SignalLog final : ModeSwitchTarget {
  std::vector<int> eras;
  void on_mode_signal(int target_era) override { eras.push_back(target_era); }
};

std::vector<ClientScript> scripts_for(int n, int ops_per_client,
                                      std::uint64_t seed, Tick think_time) {
  Rng wl(seed);
  std::vector<ClientScript> scripts;
  for (int pid = 0; pid < n; ++pid) {
    Rng rng = wl.split(static_cast<std::uint64_t>(pid));
    scripts.push_back(ClientScript{static_cast<ProcessId>(pid),
                                   random_register_ops(rng, ops_per_client,
                                                       OpMix{2, 2, 1}),
                                   /*start_time=*/1000, think_time});
  }
  return scripts;
}

SystemOptions stock_options(std::uint64_t delay_seed) {
  SystemOptions sys;
  sys.n = 3;
  sys.timing = kTiming;
  sys.delays = std::make_shared<UniformDelayPolicy>(kTiming, delay_seed);
  return sys;
}

/// Run a stock system, optionally watched; returns (hash, monitor stats).
struct WatchedRun {
  std::uint64_t hash = 0;
  std::int64_t violations = 0;
  int downgrades = 0;
  int upgrades = 0;
  bool permanent = false;
  std::vector<int> signals;
};

WatchedRun run_watched(const SystemOptions& options, bool with_monitor,
                       MonitorOptions mopt = {},
                       const FaultConfig* faults = nullptr, int ops = 6,
                       Tick think_time = 0) {
  auto model = std::make_shared<RegisterModel>();
  SystemOptions sys = options;
  if (faults && faults->any()) sys.faults = make_fault_policy(*faults);
  ReplicaSystem system(model, sys);
  WorkloadDriver driver(system.sim(), scripts_for(sys.n, ops, 77, think_time));
  driver.arm();

  std::unique_ptr<SynchronyMonitor> monitor;
  SignalLog log;
  if (with_monitor) {
    monitor = std::make_unique<SynchronyMonitor>(system.sim(), mopt);
    monitor->add_target(0, &log);
    monitor->arm();
  }
  (void)system.run_with_outcome();

  WatchedRun out;
  out.hash = hash_trace(system.sim().trace());
  if (monitor) {
    out.violations = monitor->violations();
    out.downgrades = monitor->downgrade_count();
    out.upgrades = monitor->upgrade_count();
    out.permanent = monitor->permanently_degraded();
    out.signals = log.eras;
  }
  return out;
}

TEST(SynchronyMonitor, CleanRunLeavesNoFootprint) {
  // The monitor schedules itself through unrecorded call_at events and
  // records nothing without a violation: byte-identical trace.
  const WatchedRun bare = run_watched(stock_options(3), /*with_monitor=*/false);
  const WatchedRun watched = run_watched(stock_options(3), /*with_monitor=*/true);
  EXPECT_EQ(bare.hash, watched.hash);
  EXPECT_EQ(watched.violations, 0);
  EXPECT_EQ(watched.downgrades, 0);
  EXPECT_TRUE(watched.signals.empty());
}

TEST(SynchronyMonitor, SpikesPastEnvelopeDowngrade) {
  FaultConfig faults;
  faults.spike_p = 0.5;
  faults.spike_max = 4 * kTiming.d;  // far outside [d-u, d]
  faults.seed = 9;
  const WatchedRun run = run_watched(stock_options(3), true, MonitorOptions{},
                                     &faults, /*ops=*/8);
  EXPECT_GT(run.violations, 0);
  EXPECT_GE(run.downgrades, 1);
  ASSERT_FALSE(run.signals.empty());
  EXPECT_EQ(run.signals.front(), 1);  // first signal: era 0 -> 1
}

TEST(SynchronyMonitor, HealedStormUpgradesBack) {
  // An early healed partition makes messages overdue (violations), then the
  // long tail of the workload runs clean past the clean window -> upgrade.
  FaultConfig faults;
  faults.seed = 13;
  PartitionWindow w;
  w.from = 1500;
  w.until = w.from + 4 * kTiming.d;
  w.component_of = {1, 0, 0};
  faults.partitions.push_back(w);
  MonitorOptions mopt;
  mopt.downgrade_after = 1;
  const WatchedRun run =
      run_watched(stock_options(5), true, mopt, &faults, /*ops=*/14,
                  /*think_time=*/2 * kTiming.d);
  EXPECT_GE(run.downgrades, 1);
  EXPECT_GE(run.upgrades, 1);
  EXPECT_FALSE(run.permanent);
  // Signals alternate downgrade (odd era) / upgrade (even era), growing.
  for (std::size_t i = 1; i < run.signals.size(); ++i) {
    EXPECT_EQ(run.signals[i], run.signals[i - 1] + 1);
  }
}

TEST(SynchronyMonitor, HysteresisHoldsBackSingleBlips) {
  FaultConfig faults;
  faults.spike_p = 0.02;  // a rare blip
  faults.spike_max = 2 * kTiming.d;
  faults.seed = 17;
  MonitorOptions mopt;
  mopt.downgrade_after = 1000;  // effectively never
  const WatchedRun run =
      run_watched(stock_options(7), true, mopt, &faults, /*ops=*/6);
  EXPECT_EQ(run.downgrades, 0);
  EXPECT_TRUE(run.signals.empty());
}

TEST(SynchronyMonitor, StaticSkewPastEpsIsPermanent) {
  SystemOptions sys = stock_options(3);
  sys.clock_offsets = {0, 0, 2 * kTiming.eps};  // pairwise skew 2*eps > eps
  const WatchedRun run = run_watched(sys, true);
  EXPECT_TRUE(run.permanent);
  EXPECT_GE(run.downgrades, 1);
  EXPECT_EQ(run.upgrades, 0);  // permanent: never upgrades back
}

TEST(SynchronyMonitor, PercentilesAndValidation) {
  auto model = std::make_shared<RegisterModel>();
  SystemOptions sys = stock_options(3);
  ReplicaSystem system(model, sys);
  WorkloadDriver driver(system.sim(), scripts_for(sys.n, 5, 77, 0));
  driver.arm();
  SynchronyMonitor monitor(system.sim(), MonitorOptions{});
  monitor.arm();
  (void)system.run_with_outcome();

  // Somebody talked to somebody: at least one directed link has samples,
  // and its percentiles are ordered and inside the envelope (clean run).
  bool saw_link = false;
  for (ProcessId from = 0; from < 3; ++from) {
    for (ProcessId to = 0; to < 3; ++to) {
      if (monitor.link_sample_count(from, to) == 0) {
        EXPECT_EQ(monitor.link_delay_percentile(from, to, 50.0), kNoTime);
        continue;
      }
      saw_link = true;
      const Tick p50 = monitor.link_delay_percentile(from, to, 50.0);
      const Tick p100 = monitor.link_delay_percentile(from, to, 100.0);
      EXPECT_LE(p50, p100);
      EXPECT_GE(p50, kTiming.d - kTiming.u);
      EXPECT_LE(p100, kTiming.d);
    }
  }
  EXPECT_TRUE(saw_link);
  EXPECT_THROW(monitor.link_delay_percentile(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(monitor.link_delay_percentile(0, 1, 101.0),
               std::invalid_argument);
  // Registration after arm() is a programming error.
  SignalLog log;
  EXPECT_THROW(monitor.add_target(0, &log), std::logic_error);
}

TEST(SynchronyMonitor, RejectsInvalidOptions) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, stock_options(3));
  MonitorOptions bad;
  bad.downgrade_after = 0;
  EXPECT_THROW(SynchronyMonitor(system.sim(), bad), std::invalid_argument);
}

}  // namespace
}  // namespace linbound
