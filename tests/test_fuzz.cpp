// Randomized whole-system fuzzing: random admissible configurations
// (timing parameters, delay matrices, clock offsets, schedules, data types)
// run under Algorithm 1 must ALWAYS produce linearizable histories with
// every per-class latency inside its bound.  This is the widest net in the
// suite -- the adversary grid of test_sweeps covers structured corners,
// this covers the unstructured middle.
#include <gtest/gtest.h>

#include <memory>

#include "chaos/chaos.h"
#include "checker/brute_checker.h"
#include "checker/lin_checker.h"
#include "common/parallel.h"
#include "core/driver.h"
#include "fault/assumption_monitor.h"
#include "fault/fault_policy.h"
#include "sim/trace_io.h"
#include "core/system.h"
#include "core/workload.h"
#include "harness/latency.h"
#include "types/array_type.h"
#include "types/queue_type.h"
#include "types/register_type.h"
#include "types/set_type.h"
#include "types/stack_type.h"
#include "types/tree_type.h"

namespace linbound {
namespace {

std::shared_ptr<ObjectModel> random_model(Rng& rng) {
  switch (rng.uniform(0, 5)) {
    case 0:
      return std::make_shared<RegisterModel>(rng.uniform(0, 5));
    case 1:
      return std::make_shared<QueueModel>();
    case 2:
      return std::make_shared<StackModel>();
    case 3:
      return std::make_shared<SetModel>();
    case 4:
      return std::make_shared<TreeModel>();
    default:
      return std::make_shared<ArrayModel>(std::vector<std::int64_t>{0, 0});
  }
}

std::vector<Operation> random_ops_for(const ObjectModel& model, Rng& rng, int count) {
  const OpMix mix{2, 2, 1};
  const std::string name = model.name();
  if (name == "register") return random_register_ops(rng, count, mix);
  if (name == "queue") return random_queue_ops(rng, count, mix);
  if (name == "stack") return random_stack_ops(rng, count, mix);
  if (name == "set") return random_set_ops(rng, count, mix);
  if (name == "tree") return random_tree_ops(rng, count, mix);
  return random_array_ops(rng, count, mix, 2);
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, RandomAdmissibleRunsAreAlwaysLinearizable) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ull + 3);
  for (int round = 0; round < 12; ++round) {
    // Random but valid timing; keep eps within the skew the algorithm
    // supports (any eps >= actual skew works; use eps as both).
    SystemTiming t;
    t.u = rng.uniform_tick(2, 500);
    t.d = t.u + rng.uniform_tick(1, 1000);
    t.eps = rng.uniform_tick(0, t.u);
    // n and ops-per-client kept small: checker cost is exponential in the
    // number of *simultaneously pending* operations, and the fuzzer's
    // closed-loop clients overlap almost fully.
    const int n = static_cast<int>(rng.uniform(2, 4));
    const Tick x = rng.uniform_tick(0, t.d + t.eps - t.u);

    SystemOptions o;
    o.n = n;
    o.timing = t;
    o.x = x;
    // Random pairwise matrix or per-message random policy.
    if (rng.chance(0.5)) {
      auto matrix = std::make_shared<MatrixDelayPolicy>(n, t.d);
      for (ProcessId i = 0; i < n; ++i) {
        for (ProcessId j = 0; j < n; ++j) {
          if (i != j) matrix->set(i, j, rng.uniform_tick(t.min_delay(), t.d));
        }
      }
      o.delays = matrix;
    } else {
      o.delays = std::make_shared<ExtremalDelayPolicy>(t, rng.next_u64());
    }
    for (int i = 0; i < n; ++i) {
      o.clock_offsets.push_back(rng.uniform_tick(0, t.eps));
    }

    auto model = random_model(rng);
    ReplicaSystem system(model, o);
    std::vector<ClientScript> scripts;
    for (int p = 0; p < n; ++p) {
      Rng crng = rng.split(static_cast<std::uint64_t>(p) + 100);
      scripts.push_back({p, random_ops_for(*model, crng, 6),
                         rng.uniform_tick(0, 2000), rng.uniform_tick(0, 50)});
    }
    WorkloadDriver driver(system.sim(), std::move(scripts));
    driver.arm();

    const History history = system.run_to_completion();
    const AdmissibilityReport admissible = system.sim().trace().audit();
    ASSERT_TRUE(admissible.admissible)
        << "fuzzer generated an inadmissible run: " << admissible.violations[0];

    const CheckResult check = check_linearizable(*model, history);
    ASSERT_TRUE(check.ok) << "seed " << GetParam() << " round " << round
                          << " type " << model->name() << " n=" << n
                          << " d=" << t.d << " u=" << t.u << " eps=" << t.eps
                          << " X=" << x << "\n"
                          << check.explanation << "\n"
                          << history.to_string(*model);

    LatencyReport latency;
    latency.absorb(*model, system.sim().trace());
    const Tick mop = latency.worst_for_class(OpClass::kPureMutator);
    if (mop != kNoTime) {
      EXPECT_EQ(mop, system.algorithm_delays().mop_ack);
    }
    const Tick aop = latency.worst_for_class(OpClass::kPureAccessor);
    if (aop != kNoTime) {
      EXPECT_EQ(aop, t.d + t.eps - x);
    }
    const Tick oop = latency.worst_for_class(OpClass::kOther);
    if (oop != kNoTime) {
      EXPECT_LE(oop, t.d + t.eps);
    }
  }
}

TEST_P(FuzzTest, RandomCrashRecoverSchedulesStayLinearizable) {
  // Crash-recovery fuzzing: random admissible configurations under the
  // recoverable replica, with randomized crash/recover windows cut into a
  // closed-loop workload (the driver re-issues cut operations on recovery).
  // Downtime is kept within the link layer's retransmission budget, so
  // every run must be linearizable under the pending-aware checker; small
  // histories are cross-checked against the brute-force enumerator.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ull + 77);
  for (int round = 0; round < 4; ++round) {
    SystemTiming t;
    t.u = rng.uniform_tick(2, 300);
    t.d = t.u + rng.uniform_tick(1, 700);
    t.eps = rng.uniform_tick(0, t.u);
    const int n = static_cast<int>(rng.uniform(2, 3));

    SystemOptions o;
    o.n = n;
    o.timing = t;
    RecoverableParams rp;
    rp.link.max_attempts = 4;  // retransmission budget covers the downtime
    o.recoverable = rp;
    o.delays = std::make_shared<ExtremalDelayPolicy>(t, rng.next_u64());
    for (int i = 0; i < n; ++i) {
      o.clock_offsets.push_back(rng.uniform_tick(0, t.eps));
    }

    auto model = random_model(rng);
    ReplicaSystem system(model, o);
    std::vector<ClientScript> scripts;
    for (ProcessId p = 0; p < n; ++p) {
      Rng crng = rng.split(static_cast<std::uint64_t>(p) + 500);
      scripts.push_back({p, random_ops_for(*model, crng, 3),
                         rng.uniform_tick(0, 1500), rng.uniform_tick(0, t.d)});
    }
    WorkloadDriver driver(system.sim(), std::move(scripts));
    driver.arm();

    // One or two crash/recover windows, sequential in time (max one process
    // down at once, so a rejoiner always finds a fully caught-up peer).
    const ProcessId victim = static_cast<ProcessId>(rng.uniform(0, n - 1));
    const Tick crash = rng.uniform_tick(200, 2500);
    const Tick down = rng.uniform_tick(t.d, 3 * t.d);
    system.sim().crash_at(crash, victim);
    system.sim().recover_at(crash + down, victim);
    if (n > 2 && rng.chance(0.5)) {
      const ProcessId victim2 = static_cast<ProcessId>((victim + 1) % n);
      const Tick crash2 = crash + down + rng.uniform_tick(1, 2 * t.d);
      system.sim().crash_at(crash2, victim2);
      system.sim().recover_at(crash2 + rng.uniform_tick(t.d, 2 * t.d),
                              victim2);
    }

    system.sim().start();
    ASSERT_TRUE(system.sim().run());

    const Trace& trace = system.sim().trace();
    auto [history, pending] = history_with_pending(trace);
    const CheckResult check =
        check_linearizable_with_pending(*model, history, pending);
    ASSERT_TRUE(check.ok)
        << "seed " << GetParam() << " round " << round << " type "
        << model->name() << " n=" << n << " d=" << t.d << " u=" << t.u
        << " eps=" << t.eps << " victim=" << victim << " crash=" << crash
        << " down=" << down << "\n"
        << check.explanation << "\n"
        << history.to_string(*model);

    // Cross-check the pending-aware search against brute force where the
    // enumeration is tractable.
    if (history.size() + pending.size() <= 8) {
      EXPECT_EQ(brute_force_linearizable_with_pending(*model, history, pending),
                check.ok);
    }

    // Every one of these runs crashed and recovered someone: the monitor
    // must attribute it.
    const AssumptionReport report = audit_assumptions(trace);
    EXPECT_TRUE(report.violated(Assumption::kRecovering)) << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 10));

TEST(FuzzDeterminism, FaultAndChurnSweepsHashIdenticallyAtAnyJobCount) {
  // Double-run determinism across the fault+churn adversary space: every
  // spec is executed twice inside run_chaos (hash compared bit-for-bit),
  // and the whole sweep, aggregated in canonical order, must produce the
  // identical hash sequence at --jobs 1, 2 and 4.
  std::vector<ChaosRunSpec> specs;
  Rng rng(0xf022);
  for (int i = 0; i < 12; ++i) {
    ChaosRunSpec spec;
    spec.n = 3;
    spec.timing = SystemTiming{1000, 400, 300};
    spec.ops_per_client = 4;
    spec.delay_seed = rng.next_u64();
    spec.workload_seed = rng.next_u64();
    spec.workload = static_cast<ChaosWorkload>(i % 3);
    spec.faults.seed = rng.next_u64();
    spec.faults.drop_p = 0.1;
    spec.faults.dup_p = 0.1;
    spec.faults.spike_p = 0.1;
    spec.faults.spike_max = 300;
    if (i % 2 == 0) {
      spec.variant = ChaosVariant::kRecoverable;
      spec.faults.churn.mean_uptime = 8000;
      spec.faults.churn.mean_downtime = 2000;
      spec.faults.churn.start = 1000;
      spec.faults.churn.horizon = 12000;
      spec.faults.churn.max_down = 1;
    } else {
      spec.variant = ChaosVariant::kHardened;
    }
    specs.push_back(std::move(spec));
  }

  auto sweep_hashes = [&](int jobs) {
    const ParallelSweepExecutor executor(jobs);
    return executor.map<std::uint64_t>(specs.size(), [&](std::size_t i) {
      const ChaosRunResult r = run_chaos(specs[i]);
      EXPECT_NE(r.verdict, ChaosVerdict::kNonDeterministic) << r.detail;
      return r.trace_hash;
    });
  };

  const auto serial = sweep_hashes(1);
  EXPECT_EQ(sweep_hashes(2), serial);
  EXPECT_EQ(sweep_hashes(4), serial);
}

}  // namespace
}  // namespace linbound
