// The mode-switching replica (src/degrade) end to end: a clean run is
// byte-identical to plain hardened Algorithm 1; a storm that stalls both
// fixed-mode variants completes under mode switching -- downgrade, quorum
// era, re-upgrade -- with a linearizable merged history and deterministic
// replay; crashes during the degraded window are answered from the durable
// quorum log with no client reissue.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "chaos/chaos.h"
#include "core/driver.h"
#include "core/workload.h"
#include "degrade/degrade_system.h"
#include "fault/fault_policy.h"
#include "sim/trace_io.h"
#include "types/register_type.h"

namespace linbound {
namespace {

constexpr SystemTiming kTiming{1000, 400, 300};

std::vector<ClientScript> scripts_for(int n, int ops_per_client,
                                      std::uint64_t seed, Tick think_time) {
  Rng wl(seed);
  std::vector<ClientScript> scripts;
  for (int pid = 0; pid < n; ++pid) {
    Rng rng = wl.split(static_cast<std::uint64_t>(pid));
    // First op is a pure mutator: a MOP answers only through its own ack
    // timer, so a crash cutting it is unrecoverable for fixed-mode replicas
    // (the storm below relies on this; it is harmless everywhere else).
    std::vector<Operation> ops{reg::write(static_cast<std::int64_t>(pid) + 1)};
    for (Operation& op :
         random_register_ops(rng, ops_per_client - 1, OpMix{2, 2, 1})) {
      ops.push_back(std::move(op));
    }
    scripts.push_back(ClientScript{static_cast<ProcessId>(pid), std::move(ops),
                                   /*start_time=*/1000, think_time});
  }
  return scripts;
}

/// The acceptance storm: a 6d partition around process 0, plus a crash of
/// process 0 while its first operation (a pure mutator) is in flight --
/// killing the ack timer that is the only path to its response -- healed
/// well before the end of a long think-time workload.
struct Storm {
  PartitionWindow partition;
  Tick crash_at = 1200;
  Tick recover_at = 0;

  explicit Storm(const SystemTiming& t) {
    partition.from = 1500;
    partition.until = partition.from + 6 * t.d;
    partition.component_of = {1, 0, 0};
    recover_at = partition.until + 2 * t.d;
  }

  FaultConfig faults() const {
    FaultConfig f;
    f.seed = 4242;
    f.partitions.push_back(partition);
    return f;
  }
};

struct StormRun {
  RunOutcome outcome;
  bool linearizable = false;
  std::uint64_t hash = 0;
  int downgrades = 0;
  int upgrades = 0;
};

enum class Mode { kStock, kHardened, kSwitching };

StormRun run_storm(Mode mode, std::uint64_t delay_seed) {
  const Storm storm(kTiming);
  auto model = std::make_shared<RegisterModel>();

  SystemOptions sys;
  sys.n = 3;
  sys.timing = kTiming;
  sys.delays = std::make_shared<UniformDelayPolicy>(kTiming, delay_seed);
  sys.faults = make_fault_policy(storm.faults());
  if (mode == Mode::kHardened) sys.hardened = HardenedParams{};

  std::unique_ptr<ObjectSystem> system;
  const SynchronyMonitor* monitor = nullptr;
  if (mode == Mode::kSwitching) {
    DegradeOptions dopt;
    dopt.base = sys;
    dopt.switching = true;
    DegradeSystem* ds = new DegradeSystem(model, dopt);
    system.reset(ds);
    monitor = ds->monitor();
  } else {
    system = std::make_unique<ReplicaSystem>(model, sys);
  }

  // Fixed modes rely on the client retrying a crash-cut operation; the
  // switching system answers it from the drain/quorum log itself.
  WorkloadDriver driver(system->sim(), scripts_for(3, 10, 777, 2 * kTiming.d),
                        {}, {},
                        /*reissue_cut_ops=*/mode != Mode::kSwitching);
  driver.arm();
  system->sim().crash_at(storm.crash_at, 0);
  system->sim().recover_at(storm.recover_at, 0);

  StormRun out;
  out.outcome = system->run_with_outcome();
  // A stalled fixed-mode run leaves the crash-cut token pending alongside
  // its reissue -- same process, overlapping invocations -- which the
  // checker rejects as malformed.  The check is the switching run's claim.
  if (mode == Mode::kSwitching) {
    const CheckResult check = check_linearizable_with_pending(
        *model, out.outcome.history, out.outcome.pending, CheckOptions{});
    out.linearizable = check.ok;
  }
  out.hash = hash_trace(system->sim().trace());
  if (monitor) {
    out.downgrades = monitor->downgrade_count();
    out.upgrades = monitor->upgrade_count();
  }
  return out;
}

TEST(ModeSwitching, CleanRunByteIdenticalToHardened) {
  // No storm: the supervisor stays silent, the wrappers add no messages,
  // and the whole degradation apparatus must leave the trace untouched.
  auto model = std::make_shared<RegisterModel>();
  const auto run_one = [&](bool switching) {
    SystemOptions sys;
    sys.n = 3;
    sys.timing = kTiming;
    sys.delays = std::make_shared<UniformDelayPolicy>(kTiming, 5);
    std::unique_ptr<ObjectSystem> system;
    if (switching) {
      DegradeOptions dopt;
      dopt.base = sys;
      dopt.switching = true;
      system = std::make_unique<DegradeSystem>(model, dopt);
    } else {
      sys.hardened = HardenedParams{};
      system = std::make_unique<ReplicaSystem>(model, sys);
    }
    WorkloadDriver driver(system->sim(), scripts_for(3, 6, 55, 0), {}, {},
                          /*reissue_cut_ops=*/!switching);
    driver.arm();
    const RunOutcome outcome = system->run_with_outcome();
    EXPECT_EQ(outcome.status, RunStatus::kComplete);
    return hash_trace(system->sim().trace());
  };
  EXPECT_EQ(run_one(false), run_one(true));
}

TEST(ModeSwitching, StormStallsFixedModesButNotSwitching) {
  // The acceptance gate: same storm, three systems.  The crash cuts an
  // in-flight operation; stock and hardened leave its token pending
  // forever, the switching system downgrades, carries it through the
  // drain into the quorum log, answers it, and upgrades back.
  const StormRun stock = run_storm(Mode::kStock, 5);
  const StormRun hardened = run_storm(Mode::kHardened, 5);
  const StormRun switching = run_storm(Mode::kSwitching, 5);

  EXPECT_EQ(stock.outcome.status, RunStatus::kStalled);
  EXPECT_EQ(hardened.outcome.status, RunStatus::kStalled);

  EXPECT_EQ(switching.outcome.status, RunStatus::kComplete)
      << "pending: " << switching.outcome.pending.size();
  EXPECT_TRUE(switching.linearizable);
  EXPECT_GE(switching.downgrades, 1);
  EXPECT_GE(switching.upgrades, 1);
}

TEST(ModeSwitching, StormRunIsDeterministic) {
  const StormRun a = run_storm(Mode::kSwitching, 5);
  const StormRun b = run_storm(Mode::kSwitching, 5);
  EXPECT_EQ(a.hash, b.hash);
}

TEST(ModeSwitching, ChaosOracleAcceptsTheStorm) {
  // The same claim through the chaos engine: a partition/delay-spike storm
  // cell runs clean under the mode-switching variant -- the degraded-mode
  // liveness oracle demands completion, the linearizability oracle holds,
  // and the double-run determinism check passes inside run_chaos.
  ChaosRunSpec spec;
  spec.n = 3;
  spec.timing = kTiming;
  spec.variant = ChaosVariant::kModeSwitching;
  spec.ops_per_client = 6;
  spec.think_time = kTiming.d;
  spec.delay_seed = 31;
  spec.workload_seed = 32;
  spec.faults.spike_p = 0.25;
  spec.faults.spike_max = 4 * kTiming.d;
  spec.faults.seed = 33;
  const ChaosRunResult result = run_chaos(spec);
  EXPECT_EQ(result.verdict, ChaosVerdict::kOk) << result.detail;
  EXPECT_EQ(result.status, RunStatus::kComplete) << result.detail;
  EXPECT_GE(result.downgrades, 1);
  EXPECT_TRUE(result.linearizable);
}

TEST(ModeSwitching, QuorumVariantRunsThroughChaos) {
  ChaosRunSpec spec;
  spec.n = 3;
  spec.timing = kTiming;
  spec.variant = ChaosVariant::kQuorum;
  spec.ops_per_client = 5;
  spec.delay_seed = 41;
  spec.workload_seed = 42;
  spec.faults.drop_p = 0.15;
  spec.faults.seed = 43;
  const ChaosRunResult result = run_chaos(spec);
  EXPECT_EQ(result.verdict, ChaosVerdict::kOk) << result.detail;
  EXPECT_TRUE(result.guarantee_applies);  // Paxos safety is unconditional
}

TEST(ModeSwitching, DegradeVariantsRejectMutants) {
  ChaosRunSpec spec;
  spec.n = 3;
  spec.timing = kTiming;
  spec.variant = ChaosVariant::kModeSwitching;
  spec.mutant = ChaosMutant::kEagerMop;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ModeSwitching, VariantNamesRoundTripThroughRepro) {
  // chaosrepro serialization carries the new variant names unchanged.
  for (ChaosVariant v : {ChaosVariant::kModeSwitching, ChaosVariant::kQuorum}) {
    ReproBundle bundle;
    bundle.spec.n = 3;
    bundle.spec.timing = kTiming;
    bundle.spec.variant = v;
    std::stringstream text;
    write_repro_bundle(text, bundle);
    std::string error;
    const auto parsed = read_repro_bundle(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->spec.variant, v);
  }
}

TEST(ModeSwitching, RejectsMeaninglessBaseOptions) {
  auto model = std::make_shared<RegisterModel>();
  DegradeOptions opt;
  opt.base.n = 3;
  opt.base.timing = kTiming;
  opt.base.recoverable = RecoverableParams{};  // Algorithm 1 only
  EXPECT_THROW(DegradeSystem(model, opt), std::invalid_argument);
}

}  // namespace
}  // namespace linbound
