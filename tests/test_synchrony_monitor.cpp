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
    monitor = std::make_unique<SynchronyMonitor>(system.sim());
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
  const WatchedRun run =
      run_watched(stock_options(3), true, &faults, /*ops=*/8);
  EXPECT_GT(run.violations, 0);
  EXPECT_GE(run.downgrades, 1);
  ASSERT_FALSE(run.signals.empty());
  EXPECT_EQ(run.signals.front(), 1);  // first signal: era 0 -> 1
}

TEST(SynchronyMonitor, HealedStormUpgradesBack) {
  // An early healed partition makes messages overdue (at least
  // kDowngradeAfter violations), then the long tail of the workload runs
  // clean past the clean window -> upgrade.
  FaultConfig faults;
  faults.seed = 13;
  PartitionWindow w;
  w.from = 1500;
  w.until = w.from + 8 * kTiming.d;
  w.component_of = {1, 0, 0};
  faults.partitions.push_back(w);
  const WatchedRun run =
      run_watched(stock_options(5), true, &faults, /*ops=*/14,
                  /*think_time=*/2 * kTiming.d);
  EXPECT_GE(run.downgrades, 1);
  EXPECT_GE(run.upgrades, 1);
  EXPECT_FALSE(run.permanent);
  // Signals alternate downgrade (odd era) / upgrade (even era), growing.
  for (std::size_t i = 1; i < run.signals.size(); ++i) {
    EXPECT_EQ(run.signals[i], run.signals[i - 1] + 1);
  }
}

/// Spikes exactly the first `count` messages by d/2: each then arrives in
/// (d, 1.5d], one envelope violation apiece, and never overdue (2d).
class SpikeFirstMessages final : public FaultPolicy {
 public:
  explicit SpikeFirstMessages(std::int64_t count) : left_(count) {}
  FaultDecision on_send(ProcessId, ProcessId, Tick, std::int64_t) override {
    FaultDecision out;
    if (left_ > 0) {
      --left_;
      out.delay_boost = kTiming.d / 2;
    }
    return out;
  }

 private:
  std::int64_t left_;
};

TEST(SynchronyMonitor, HysteresisHoldsBackSingleBlips) {
  // A storm one violation short of the threshold never downgrades; one more
  // violation does.
  for (const std::int64_t storm : {SynchronyMonitor::kDowngradeAfter - 1,
                                   SynchronyMonitor::kDowngradeAfter}) {
    SystemOptions sys = stock_options(7);
    sys.faults = std::make_shared<SpikeFirstMessages>(storm);
    const WatchedRun run = run_watched(sys, true);
    EXPECT_EQ(run.violations, storm);
    if (storm < SynchronyMonitor::kDowngradeAfter) {
      EXPECT_EQ(run.downgrades, 0);
      EXPECT_TRUE(run.signals.empty());
    } else {
      EXPECT_GE(run.downgrades, 1);
    }
  }
}

TEST(SynchronyMonitor, StaticSkewPastEpsIsPermanent) {
  SystemOptions sys = stock_options(3);
  sys.clock_offsets = {0, 0, 2 * kTiming.eps};  // pairwise skew 2*eps > eps
  const WatchedRun run = run_watched(sys, true);
  EXPECT_TRUE(run.permanent);
  EXPECT_GE(run.downgrades, 1);
  EXPECT_EQ(run.upgrades, 0);  // permanent: never upgrades back
}

TEST(SynchronyMonitor, RegistrationAfterArmThrows) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, stock_options(3));
  SynchronyMonitor monitor(system.sim());
  monitor.arm();
  SignalLog log;
  EXPECT_THROW(monitor.add_target(0, &log), std::logic_error);
}

}  // namespace
}  // namespace linbound
