// Golden trace hashes: hash_trace pinned for a handful of fixed runs that
// together reach every event kind, both priority classes, every fault path
// that re-pushes an event (stalled deliveries, timers and invocations),
// crash/recover, the PDES window loop and the mode-switching supervisor.
//
// The simulator's determinism contract says a run is a pure function of its
// configuration; these constants say *which* function.  A structural change
// to the event queue, the delivery loop or the pending tables must leave
// every hash below untouched.  A protocol or workload change that moves one
// on purpose updates the constant in the same commit and says why.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/system.h"
#include "core/workload.h"
#include "degrade/degrade_system.h"
#include "fault/churn.h"
#include "fault/fault_policy.h"
#include "shard/shard.h"
#include "sim/trace_io.h"
#include "types/register_type.h"

namespace linbound {
namespace {

constexpr SystemTiming kTiming{1000, 400, 300};

std::string hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(h));
  return buf;
}

#define EXPECT_GOLDEN(actual, expected) \
  EXPECT_EQ((actual), (expected)) << "actual hash " << hex(actual)

SystemOptions base_options(int n) {
  SystemOptions o;
  o.n = n;
  o.timing = kTiming;
  o.x = 0;
  return o;
}

HeavyTrafficOptions traffic(std::size_t ops) {
  HeavyTrafficOptions w;
  w.clients = 4;
  w.total_ops = ops;
  w.min_gap = 4 * kTiming.d;
  w.jitter = 137;
  w.batch = 256;
  return w;
}

Trace run_heavy(const SystemOptions& options, const HeavyTrafficOptions& w) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options);
  HeavyTrafficWorkload workload(system.sim(), w);
  system.sim().start();
  workload.arm();
  EXPECT_TRUE(system.sim().run());
  EXPECT_TRUE(system.sim().trace().complete());
  return system.sim().trace();
}

std::size_t count_faults(const Trace& trace, FaultKind kind) {
  std::size_t n = 0;
  for (const FaultEvent& f : trace.faults) n += f.kind == kind;
  return n;
}

TEST(GoldenHashes, CleanHeavyTraffic) {
  const Trace trace = run_heavy(base_options(4), traffic(2000));
  EXPECT_EQ(trace.ops.size(), 2000u);
  EXPECT_GOLDEN(hash_trace(trace), 0xb17f4144287547d0ULL);
}

TEST(GoldenHashes, DuplicateAndSpikeHardened) {
  HardenedParams hardened;
  hardened.spike_margin = 300;
  SystemOptions o = base_options(4);
  FaultConfig faults;
  faults.dup_p = 0.08;
  faults.spike_p = 0.08;
  faults.spike_max = 300;
  faults.seed = 0xfa17u;
  o.faults = make_fault_policy(faults);
  o.hardened = hardened;
  HeavyTrafficOptions w = traffic(1000);
  w.min_gap = hardened.effective_d(kTiming) + kTiming.eps + 1000;

  const Trace trace = run_heavy(o, w);
  EXPECT_GT(count_faults(trace, FaultKind::kMessageDuplicated), 0u);
  EXPECT_GT(count_faults(trace, FaultKind::kDelaySpike), 0u);
  EXPECT_GOLDEN(hash_trace(trace), 0xccf8211788fefa38ULL);
}

TEST(GoldenHashes, ChurnedRecoverableWithStalls) {
  // Crash/recover churn plus stall windows: stalled deliveries, timers and
  // invocations are re-pushed at the window's end, the one place the
  // simulator pushes an event it popped.
  FaultConfig config;
  config.seed = 2026;
  config.dup_p = 0.05;
  config.churn.mean_uptime = 20'000;
  config.churn.mean_downtime = 4'000;
  config.churn.start = 2'000;
  config.churn.horizon = 40'000;
  config.stalls.push_back(StallWindow{2, 3'000, 5'500});
  config.stalls.push_back(StallWindow{1, 9'000, 9'800});
  config.stalls.push_back(StallWindow{3, 14'000, 16'000});

  SystemOptions o = base_options(4);
  RecoverableParams rp;
  rp.link.max_attempts = 4;
  o.recoverable = rp;
  o.faults = make_fault_policy(config);
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, o);

  std::vector<ClientScript> scripts;
  Rng rng(config.seed);
  for (ProcessId p = 0; p < o.n; ++p) {
    Rng crng = rng.split(static_cast<std::uint64_t>(p) + 100);
    scripts.push_back({p, random_register_ops(crng, 8, OpMix{2, 2, 2}),
                       1000 + 500 * p, 200});
  }
  WorkloadDriver driver(system.sim(), std::move(scripts));
  driver.arm();
  make_churn_schedule(config, o.n).apply(system.sim());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());

  const Trace& trace = system.sim().trace();
  EXPECT_GT(count_faults(trace, FaultKind::kProcessRecovered), 0u);
  EXPECT_GT(count_faults(trace, FaultKind::kProcessStalled), 0u);
  EXPECT_GOLDEN(hash_trace(trace), 0xeac3333ee2694d4aULL);
}

TEST(GoldenHashes, FourShardSimulation) {
  ShardOptions o;
  o.shards = 4;
  o.timing = kTiming;
  o.total_ops = 48;
  o.sync_epochs = 3;
  o.seed = 0x7e57'0001ULL;
  const std::vector<std::uint64_t> golden = {
      0xa7fb8813f801bacfULL, 0x634da33db9769fa7ULL, 0x174e4fe33c2c0ca9ULL,
      0xabd665a9fbc0f4f3ULL};
  for (int jobs : {1, 2}) {
    ShardedSimulation sim(o);
    const ShardRunReport report = sim.run(jobs);
    ASSERT_EQ(report.shards.size(), golden.size());
    for (std::size_t s = 0; s < golden.size(); ++s) {
      EXPECT_GOLDEN(report.shards[s].trace_hash, golden[s])
          << " (shard " << s << ", jobs " << jobs << ")";
    }
  }
}

TEST(GoldenHashes, ModeSwitchingStorm) {
  // The degrade acceptance storm (tests/test_mode_switching.cpp): a 6d
  // partition around process 0 and a crash of process 0 mid-operation;
  // the supervisor downgrades to the quorum backend and upgrades back.
  PartitionWindow partition;
  partition.from = 1500;
  partition.until = partition.from + 6 * kTiming.d;
  partition.component_of = {1, 0, 0};
  FaultConfig faults;
  faults.seed = 4242;
  faults.partitions.push_back(partition);

  SystemOptions sys = base_options(3);
  sys.delays = std::make_shared<UniformDelayPolicy>(kTiming, 5);
  sys.faults = make_fault_policy(faults);
  DegradeOptions dopt;
  dopt.base = sys;
  dopt.switching = true;
  auto model = std::make_shared<RegisterModel>();
  DegradeSystem system(model, dopt);

  Rng wl(777);
  std::vector<ClientScript> scripts;
  for (ProcessId pid = 0; pid < 3; ++pid) {
    Rng rng = wl.split(static_cast<std::uint64_t>(pid));
    std::vector<Operation> ops{reg::write(static_cast<std::int64_t>(pid) + 1)};
    for (Operation& op : random_register_ops(rng, 9, OpMix{2, 2, 1})) {
      ops.push_back(std::move(op));
    }
    scripts.push_back(ClientScript{pid, std::move(ops), 1000, 2 * kTiming.d});
  }
  WorkloadDriver driver(system.sim(), std::move(scripts), {}, {},
                        /*reissue_cut_ops=*/false);
  driver.arm();
  system.sim().crash_at(1200, 0);
  system.sim().recover_at(partition.until + 2 * kTiming.d, 0);
  const RunOutcome outcome = system.run_with_outcome();
  EXPECT_EQ(outcome.status, RunStatus::kComplete);
  EXPECT_GT(system.monitor()->downgrade_count(), 0);
  EXPECT_GT(system.monitor()->upgrade_count(), 0);
  EXPECT_GOLDEN(hash_trace(system.sim().trace()), 0x71d12b64a3f42b0aULL);
}

}  // namespace
}  // namespace linbound
