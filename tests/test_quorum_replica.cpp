// The asynchronous quorum backend in isolation (DegradeSystem with
// switching=false): linearizable and live under arbitrary delays, message
// loss, duplication, delay spikes, healed partitions, minority churn, and a
// permanent minority crash -- the full weather the degraded mode exists for.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/driver.h"
#include "core/workload.h"
#include "degrade/degrade_system.h"
#include "fault/churn.h"
#include "fault/fault_policy.h"
#include "sim/trace_io.h"
#include "types/register_type.h"
#include "types/queue_type.h"

namespace linbound {
namespace {

constexpr SystemTiming kTiming{1000, 400, 300};

DegradeOptions quorum_options(std::uint64_t delay_seed) {
  DegradeOptions opt;
  opt.switching = false;
  opt.base.n = 3;
  opt.base.timing = kTiming;
  opt.base.delays = std::make_shared<UniformDelayPolicy>(kTiming, delay_seed);
  return opt;
}

std::vector<ClientScript> scripts_for(const ObjectModel& model, int n,
                                      int ops_per_client, std::uint64_t seed,
                                      Tick think_time = 0) {
  (void)model;
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

struct QuorumRun {
  RunOutcome outcome;
  bool linearizable = false;
  std::uint64_t hash = 0;
};

QuorumRun run_quorum(const FaultConfig& faults, std::uint64_t delay_seed,
                     std::uint64_t workload_seed, int ops_per_client = 5) {
  auto model = std::make_shared<RegisterModel>();
  DegradeOptions opt = quorum_options(delay_seed);
  if (faults.any()) opt.base.faults = make_fault_policy(faults);
  DegradeSystem system(model, opt);
  // The quorum log answers crash-cut operations itself; no client reissue.
  WorkloadDriver driver(
      system.sim(),
      scripts_for(*model, opt.base.n, ops_per_client, workload_seed), {}, {},
      /*reissue_cut_ops=*/false);
  driver.arm();
  if (faults.churn.any()) {
    make_churn_schedule(faults, opt.base.n).apply(system.sim());
  }
  QuorumRun out;
  out.outcome = system.run_with_outcome();
  const CheckResult check = check_linearizable_with_pending(
      *model, out.outcome.history, out.outcome.pending, CheckOptions{});
  out.linearizable = check.ok;
  out.hash = hash_trace(system.sim().trace());
  return out;
}

TEST(QuorumReplica, CleanRunCompletesLinearizably) {
  const QuorumRun run = run_quorum(FaultConfig{}, 7, 11);
  EXPECT_EQ(run.outcome.status, RunStatus::kComplete);
  EXPECT_TRUE(run.linearizable);
}

TEST(QuorumReplica, DeterministicAcrossRuns) {
  FaultConfig faults;
  faults.drop_p = 0.10;
  faults.spike_p = 0.10;
  faults.spike_max = 3 * kTiming.d;
  faults.seed = 99;
  const QuorumRun a = run_quorum(faults, 7, 11);
  const QuorumRun b = run_quorum(faults, 7, 11);
  EXPECT_EQ(a.hash, b.hash);
}

TEST(QuorumReplica, SurvivesLossDuplicationAndSpikes) {
  // Paxos safety needs no timing; the engine's retries supply liveness.
  FaultConfig faults;
  faults.drop_p = 0.15;
  faults.dup_p = 0.15;
  faults.dup_copies = 2;
  faults.spike_p = 0.20;
  faults.spike_max = 4 * kTiming.d;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    faults.seed = 1000 + seed;
    const QuorumRun run = run_quorum(faults, seed, seed + 50);
    EXPECT_EQ(run.outcome.status, RunStatus::kComplete) << "seed " << seed;
    EXPECT_TRUE(run.linearizable) << "seed " << seed;
  }
}

TEST(QuorumReplica, SurvivesHealedPartition) {
  FaultConfig faults;
  faults.seed = 5;
  PartitionWindow w;
  w.from = 1500;
  w.until = w.from + 6 * kTiming.d;
  w.component_of = {1, 0, 0};  // process 0 alone vs the rest
  faults.partitions.push_back(w);
  const QuorumRun run = run_quorum(faults, 13, 17);
  EXPECT_EQ(run.outcome.status, RunStatus::kComplete);
  EXPECT_TRUE(run.linearizable);
}

TEST(QuorumReplica, SurvivesMinorityChurn) {
  FaultConfig faults;
  faults.seed = 21;
  faults.churn.mean_uptime = 8 * kTiming.d;
  faults.churn.mean_downtime = 2 * kTiming.d;
  faults.churn.start = 1500;
  faults.churn.horizon = 16 * kTiming.d;
  faults.churn.max_down = 1;
  const QuorumRun run = run_quorum(faults, 23, 29, /*ops_per_client=*/4);
  EXPECT_EQ(run.outcome.status, RunStatus::kComplete);
  EXPECT_TRUE(run.linearizable);
}

TEST(QuorumReplica, FaultAndChurnSweep) {
  // The backend's own mini-sweep: the combined cocktail over several seeds.
  FaultConfig faults;
  faults.drop_p = 0.10;
  faults.dup_p = 0.10;
  faults.spike_p = 0.10;
  faults.spike_max = 3 * kTiming.d;
  faults.churn.mean_uptime = 10 * kTiming.d;
  faults.churn.mean_downtime = 2 * kTiming.d;
  faults.churn.start = 2000;
  faults.churn.horizon = 14 * kTiming.d;
  faults.churn.max_down = 1;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    faults.seed = 4000 + seed;
    const QuorumRun run = run_quorum(faults, 31 + seed, 37 + seed,
                                     /*ops_per_client=*/4);
    EXPECT_EQ(run.outcome.status, RunStatus::kComplete) << "seed " << seed;
    EXPECT_TRUE(run.linearizable) << "seed " << seed;
  }
}

TEST(QuorumReplica, PermanentMinorityCrashKeepsMajorityLive) {
  // One replica dies for good mid-run.  The survivors' operations must all
  // complete (majority quorums still form); whatever the crash cut stays
  // pending -- the run is Stalled but the pending-aware check still passes.
  auto model = std::make_shared<RegisterModel>();
  DegradeOptions opt = quorum_options(43);
  DegradeSystem system(model, opt);
  WorkloadDriver driver(system.sim(),
                        scripts_for(*model, opt.base.n, 5, 47,
                                    /*think_time=*/500),
                        {}, {}, /*reissue_cut_ops=*/false);
  driver.arm();
  system.sim().crash_at(2500, 0);

  const RunOutcome outcome = system.run_with_outcome();
  const CheckResult check = check_linearizable_with_pending(
      *model, outcome.history, outcome.pending, CheckOptions{});
  EXPECT_TRUE(check.ok);
  // Every completed or pending op belongs somewhere; the survivors lost none.
  for (const PendingInvocation& p : outcome.pending) {
    EXPECT_EQ(p.proc, 0) << "a surviving replica's operation went unanswered";
  }
}

// Each engine's counters after a crash-and-catch-up run under loss, pinned:
// replica 1 is down while the others decide slots, then recovers and
// catches up.  Retries (duels and lost messages), gap fills and the chosen
// and delivered logs must come out exactly as before any change to the
// engine's internals.
TEST(QuorumReplica, CrashCatchUpCountersPinned) {
  auto model = std::make_shared<RegisterModel>();
  DegradeOptions opt = quorum_options(71);
  FaultConfig faults;
  faults.drop_p = 0.10;
  faults.seed = 73;
  opt.base.faults = make_fault_policy(faults);
  DegradeSystem system(model, opt);
  WorkloadDriver driver(system.sim(), scripts_for(*model, opt.base.n, 6, 79),
                        {}, {}, /*reissue_cut_ops=*/false);
  driver.arm();
  system.sim().crash_at(2200, 1);
  system.sim().recover_at(2200 + 5 * kTiming.d, 1);
  const RunOutcome outcome = system.run_with_outcome();
  EXPECT_EQ(outcome.status, RunStatus::kComplete);

  struct Counters {
    std::int64_t retries, noop_fills, chosen, delivered;
  };
  const Counters want[3] = {{21, 0, 18, 18}, {13, 0, 18, 18}, {10, 2, 18, 18}};
  for (ProcessId pid = 0; pid < 3; ++pid) {
    const QuorumEngine& engine =
        dynamic_cast<const QuorumReplicaProcess&>(system.sim().process(pid))
            .engine();
    const Counters& w = want[pid];
    EXPECT_EQ(engine.proposal_retries(), w.retries) << "p" << pid;
    EXPECT_EQ(engine.noop_fills(), w.noop_fills) << "p" << pid;
    EXPECT_EQ(engine.chosen_count(), w.chosen) << "p" << pid;
    EXPECT_EQ(engine.delivered_count(), w.delivered) << "p" << pid;
  }
}

// Promise and accept sets are 64-bit masks over process ids.
TEST(QuorumReplica, EngineRejectsMoreThan64Processes) {
  struct NullHost final : QuorumHost {
    PayloadArena arena;
    PayloadArena& quorum_arena() override { return arena; }
    void quorum_send(std::int64_t, ProcessId, const MessagePayload*) override {}
    void quorum_set_timer(std::int64_t, Tick, std::int64_t) override {}
    void quorum_committed(std::int64_t, std::int64_t,
                          const QuorumValue&) override {}
  } host;
  EXPECT_NO_THROW(QuorumEngine(host, 0, 0, 64, kTiming));
  EXPECT_THROW(QuorumEngine(host, 0, 0, 65, kTiming), std::invalid_argument);
}

TEST(QuorumReplica, WorksForQueues) {
  auto model = std::make_shared<QueueModel>();
  DegradeOptions opt = quorum_options(53);
  FaultConfig faults;
  faults.drop_p = 0.10;
  faults.seed = 59;
  opt.base.faults = make_fault_policy(faults);
  DegradeSystem system(model, opt);
  Rng wl(61);
  std::vector<ClientScript> scripts;
  for (int pid = 0; pid < opt.base.n; ++pid) {
    Rng rng = wl.split(static_cast<std::uint64_t>(pid));
    scripts.push_back(ClientScript{static_cast<ProcessId>(pid),
                                   random_queue_ops(rng, 5, OpMix{2, 2, 1}),
                                   1000, 0});
  }
  WorkloadDriver driver(system.sim(), std::move(scripts), {}, {},
                        /*reissue_cut_ops=*/false);
  driver.arm();
  const RunOutcome outcome = system.run_with_outcome();
  EXPECT_EQ(outcome.status, RunStatus::kComplete);
  const CheckResult check = check_linearizable_with_pending(
      *model, outcome.history, outcome.pending, CheckOptions{});
  EXPECT_TRUE(check.ok);
}

}  // namespace
}  // namespace linbound
