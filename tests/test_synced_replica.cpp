// The drift-managed deployment: periodic Lundelius-Lynch rounds keep the
// adjusted clocks within synced_eps_bound forever, so Algorithm 1 runs
// safely over horizons where both the plain and the fixed-horizon
// compensated variants fail.
#include "core/synced_replica.h"

#include <gtest/gtest.h>

#include "checker/lin_checker.h"
#include "core/driver.h"
#include "core/workload.h"
#include "sim/simulator.h"
#include "types/register_type.h"

namespace linbound {
namespace {

struct SyncedSystem {
  std::shared_ptr<RegisterModel> model = std::make_shared<RegisterModel>();
  std::unique_ptr<Simulator> sim;
  std::vector<SyncedReplicaProcess*> procs;

  SyncedSystem(int n, const SystemTiming& base, std::vector<std::int64_t> ppm,
               std::int64_t max_abs_ppm, Tick resync_period, Tick x = 0) {
    SystemTiming timing = base;
    timing.eps = synced_eps_bound(base, n, max_abs_ppm, resync_period);
    SimConfig config;
    config.timing = timing;
    config.clock_drift_ppm = std::move(ppm);
    sim = std::make_unique<Simulator>(std::move(config));
    const AlgorithmDelays algo = AlgorithmDelays::standard(timing, x);
    for (int i = 0; i < n; ++i) {
      auto proc = std::make_unique<SyncedReplicaProcess>(model, algo, resync_period);
      procs.push_back(proc.get());
      sim->add_process(std::move(proc));
    }
  }
};

const SystemTiming kBase{1000, 400, 300};

TEST(SyncedReplica, RoundsCompleteAndAdjustTowardEachOther) {
  // Large initial offsets, no drift: after the first round the adjusted
  // clocks agree to within synced_eps_bound even though the raw skew is
  // huge -- the sync layer pulls them together.
  auto model = std::make_shared<RegisterModel>();
  SimConfig config;
  SystemTiming timing = kBase;
  timing.eps = synced_eps_bound(kBase, 4, 0, 50000);
  config.timing = timing;
  config.clock_offsets = {0, 40000, -25000, 12345};
  Simulator sim(std::move(config));
  std::vector<SyncedReplicaProcess*> procs;
  const AlgorithmDelays algo = AlgorithmDelays::standard(timing, 0);
  for (int i = 0; i < 4; ++i) {
    auto proc = std::make_unique<SyncedReplicaProcess>(model, algo, 50000);
    procs.push_back(proc.get());
    sim.add_process(std::move(proc));
  }
  sim.start();
  sim.run_until(20000);  // one round done, second not yet started
  Tick lo = kTimeInfinity, hi = -kTimeInfinity;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    EXPECT_EQ(procs[i]->rounds_completed(), 1);
    // Without drift, adjusted clock = real + offset + adjustment; compare
    // the per-process constants.
    const Tick adjusted_offset =
        sim.config().clock_offsets[i] + procs[i]->adjustment();
    lo = std::min(lo, adjusted_offset);
    hi = std::max(hi, adjusted_offset);
  }
  EXPECT_LE(hi - lo, synced_eps_bound(kBase, 4, 0, 50000));
}

TEST(SyncedReplica, LongDriftingRunStaysLinearizable) {
  // +-2000 ppm drift, resync every 50000: eps_eff ~ 300 + ~204 + slack.
  // Run a closed-loop workload for ~15 resync periods; every operation
  // completes and the history is linearizable -- the unbounded-horizon
  // claim, sampled.
  const std::int64_t rho = 2000;
  SyncedSystem system(4, kBase, {2000, -2000, 1000, -500}, rho, 50000);
  Rng rng(99);
  std::vector<ClientScript> scripts;
  for (int p = 0; p < 4; ++p) {
    Rng crng = rng.split(static_cast<std::uint64_t>(p));
    // Spread 30 ops per client across the long horizon.
    scripts.push_back({p, random_register_ops(crng, 30, OpMix{2, 2, 1}),
                       1000 + 101 * p, /*think=*/20000});
  }
  WorkloadDriver driver(*system.sim, std::move(scripts));
  driver.arm();
  system.sim->start();
  // The sync layer re-arms its timer forever, so the run never goes
  // quiescent; drive it to a horizon well past the workload instead.
  system.sim->run_until(3'000'000);
  for (auto* p : system.procs) EXPECT_GE(p->rounds_completed(), 10);

  const History history = History::from_trace(system.sim->trace());
  EXPECT_EQ(history.size(), 120u);
  EXPECT_TRUE(check_linearizable(*system.model, history).ok);
}

TEST(SyncedReplica, PlainAlgorithmFailsOnTheSameConfiguration) {
  // Control: without resync, the same drifts blow past any fixed eps over
  // this horizon (divergence ~ 4000us/M-tick between the extreme clocks).
  auto model = std::make_shared<RegisterModel>();
  SimConfig config;
  config.timing = kBase;
  config.clock_drift_ppm = {2000, -2000, 1000, -500};
  Simulator sim(std::move(config));
  const AlgorithmDelays algo = AlgorithmDelays::standard(kBase, 0);
  for (int i = 0; i < 4; ++i) {
    sim.add_process(std::make_unique<ReplicaProcess>(model, algo));
  }
  // Far into the run, p0 leads p1 by ~4*T ppm-accumulated divergence.
  const Tick late = 500000;  // divergence ~2000us >> eps = 300
  sim.invoke_at(late, 0, reg::write(1));
  sim.invoke_at(late + 700, 1, reg::write(2));  // after p0's ack
  sim.invoke_at(late + 60000, 2, reg::read());
  sim.start();
  ASSERT_TRUE(sim.run());
  EXPECT_FALSE(
      check_linearizable(*model, History::from_trace(sim.trace())).ok);
}

TEST(SyncedReplica, MonotonicStampsSurviveBackwardAdjustments) {
  // A process whose clock runs fast gets repeatedly adjusted backwards;
  // back-to-back mutators across a resync boundary must still linearize
  // (per-process timestamps stay strictly increasing via the stamp guard).
  SyncedSystem system(3, kBase, {5000, 0, 0}, 5000, 20000);
  for (int k = 0; k < 12; ++k) {
    system.sim->invoke_at(1000 + 9000 * k, 0, reg::write(k));
  }
  system.sim->invoke_at(150000, 1, reg::read());
  system.sim->start();
  system.sim->run_until(400'000);  // sync timers re-arm forever; use a horizon
  const History history = History::from_trace(system.sim->trace());
  EXPECT_TRUE(check_linearizable(*system.model, history).ok)
      << history.to_string(*system.model);
  // Real-time order of the same-process writes must be preserved: the
  // final value is the last write's.
  EXPECT_EQ(history.ops().back().ret, Value(11));
}

TEST(SyncedEpsBound, ScalesWithDriftAndPeriod) {
  EXPECT_EQ(synced_eps_bound(kBase, 4, 0, 50000),
            300 + 1 + 4);  // post-sync skew + minimum drift pad + slack
  EXPECT_GT(synced_eps_bound(kBase, 4, 2000, 50000),
            synced_eps_bound(kBase, 4, 1000, 50000));
  EXPECT_GT(synced_eps_bound(kBase, 4, 1000, 100000),
            synced_eps_bound(kBase, 4, 1000, 50000));
}

}  // namespace
}  // namespace linbound
