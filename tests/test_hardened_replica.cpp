// The hardened Algorithm 1 variant (core/hardened_replica.h): loss and
// duplication tolerance via the sequence-number/ack/retransmit link, waits
// widened to the effective delivery bound d_eff, and the centralized/TOB
// baselines stalling (not hanging) on a dead coordinator or sequencer.
#include <gtest/gtest.h>

#include <memory>

#include "checker/lin_checker.h"
#include "core/system.h"
#include "types/register_type.h"

namespace linbound {
namespace {

SystemTiming timing() { return SystemTiming{1000, 400, 100}; }

/// Drops exactly the first message from process 0 to process 1 -- a
/// deterministic single-loss adversary, no seeds involved.
class DropFirstFromZeroToOne final : public FaultPolicy {
 public:
  FaultDecision on_send(ProcessId from, ProcessId to, Tick,
                        std::int64_t) override {
    FaultDecision out;
    if (from == 0 && to == 1 && !dropped_) {
      out.drop = true;
      dropped_ = true;
    }
    return out;
  }

 private:
  bool dropped_ = false;
};

/// Duplicates every message once.
class DuplicateEverything final : public FaultPolicy {
 public:
  FaultDecision on_send(ProcessId, ProcessId, Tick, std::int64_t) override {
    FaultDecision out;
    out.extra_copies = 1;
    return out;
  }
};

HardenedParams test_params() {
  HardenedParams p;
  p.max_attempts = 4;  // keeps d_eff (and run lengths) small in tests
  return p;
}

TEST(HardenedParams, EffectiveDeliveryBoundMatchesBackoffSchedule) {
  const HardenedParams params;  // defaults: 6 attempts, backoff 2, cap 8d
  // first timeout 2d+1 = 2001; steps 2001, 4002, 8000, 8000, 8000 (capped);
  // plus the last attempt's one-way flight d = 1000.
  EXPECT_EQ(params.first_timeout_for(timing()), 2001);
  EXPECT_EQ(params.step_cap_for(timing()), 8000);
  EXPECT_EQ(params.effective_d(timing()), 31003);

  const SystemTiming eff = params.effective_timing(timing());
  EXPECT_EQ(eff.d, 31003);
  // Minimum delay is unchanged: u widens with d.
  EXPECT_EQ(eff.d - eff.u, timing().d - timing().u);
  EXPECT_EQ(eff.eps, timing().eps);
  EXPECT_TRUE(eff.valid());
}

TEST(HardenedParams, SpikeMarginWidensTheFirstTimeout) {
  HardenedParams params;
  params.spike_margin = 500;
  EXPECT_EQ(params.first_timeout_for(timing()), 2 * 1500 + 1);
  EXPECT_GT(params.effective_d(timing()), HardenedParams{}.effective_d(timing()));
}

TEST(HardenedReplica, SurvivesMessageLossThatBreaksStockAlgorithm) {
  // p0 writes; the broadcast copy to p1 is lost.  p1 reads much later.
  auto run = [&](bool hardened) {
    auto model = std::make_shared<RegisterModel>();
    SystemOptions o;
    o.n = 2;
    o.timing = timing();
    o.faults = std::make_shared<DropFirstFromZeroToOne>();
    if (hardened) o.hardened = test_params();
    ReplicaSystem system(model, o);
    system.sim().invoke_at(1000, 0, reg::write(7));
    system.sim().invoke_at(20000, 1, reg::read());
    const RunOutcome outcome = system.run_with_outcome();
    EXPECT_TRUE(outcome.complete());
    std::int64_t retrans = 0;
    for (int pid = 0; pid < o.n; ++pid) {
      if (auto* h = dynamic_cast<HardenedReplicaProcess*>(&system.replica(pid))) {
        retrans += h->retransmissions();
      }
    }
    return std::pair<bool, std::int64_t>(
        check_linearizable(*model, outcome.history).ok, retrans);
  };

  const auto [stock_ok, stock_retrans] = run(false);
  EXPECT_FALSE(stock_ok);  // the lost write makes p1's read stale
  EXPECT_EQ(stock_retrans, 0);

  const auto [hardened_ok, hardened_retrans] = run(true);
  EXPECT_TRUE(hardened_ok);  // the retransmission repairs the loss
  EXPECT_GE(hardened_retrans, 1);
}

TEST(HardenedReplica, SuppressesDuplicatesThatBreakStockAlgorithm) {
  // Increment is not idempotent: a duplicated broadcast makes the stock
  // replica double-apply it, the hardened receiver suppresses the copy.
  auto run = [&](bool hardened) {
    auto model = std::make_shared<RegisterModel>();
    SystemOptions o;
    o.n = 2;
    o.timing = timing();
    o.faults = std::make_shared<DuplicateEverything>();
    if (hardened) o.hardened = test_params();
    ReplicaSystem system(model, o);
    system.sim().invoke_at(1000, 0, reg::increment(1));
    system.sim().invoke_at(20000, 1, reg::read());
    const RunOutcome outcome = system.run_with_outcome();
    EXPECT_TRUE(outcome.complete());
    std::int64_t suppressed = 0;
    for (int pid = 0; pid < o.n; ++pid) {
      if (auto* h = dynamic_cast<HardenedReplicaProcess*>(&system.replica(pid))) {
        suppressed += h->duplicates_suppressed();
      }
    }
    return std::pair<bool, std::int64_t>(
        check_linearizable(*model, outcome.history).ok, suppressed);
  };

  const auto [stock_ok, stock_suppressed] = run(false);
  EXPECT_FALSE(stock_ok);  // p1 double-applied the increment
  EXPECT_EQ(stock_suppressed, 0);

  const auto [hardened_ok, hardened_suppressed] = run(true);
  EXPECT_TRUE(hardened_ok);
  EXPECT_GE(hardened_suppressed, 1);
}

TEST(HardenedReplica, FaultFreeRunStaysLinearizable) {
  auto model = std::make_shared<RegisterModel>();
  SystemOptions o;
  o.n = 3;
  o.timing = timing();
  o.hardened = test_params();
  ReplicaSystem system(model, o);
  system.sim().invoke_at(1000, 0, reg::write(4));
  system.sim().invoke_at(1100, 1, reg::rmw(6));
  system.sim().invoke_at(20000, 2, reg::read());
  const RunOutcome outcome = system.run_with_outcome();
  EXPECT_TRUE(outcome.complete());
  EXPECT_TRUE(check_linearizable(*model, outcome.history).ok)
      << outcome.history.to_string(*model);
}

TEST(HardenedReplica, XParameterRangeIsUnchangedByWidening) {
  // d_eff + eps - u_eff = d + eps - u: the X trade-off range survives
  // hardening, so every existing X sweep remains valid.
  const HardenedParams params = test_params();
  const SystemTiming base = timing();
  const SystemTiming eff = params.effective_timing(base);
  EXPECT_EQ(eff.d + eff.eps - eff.u, base.d + base.eps - base.u);
}

TEST(GracefulDegradation, DeadCoordinatorOrSequencerLeavesTheOpPending) {
  // The baselines never abandon an operation: with the coordinator (or the
  // sequencer) crashed, the run quiesces as kStalled with the operation
  // pending forever and no give-up event recorded.
  auto model = std::make_shared<RegisterModel>();
  SystemOptions o;
  o.n = 3;
  o.timing = timing();
  CentralizedSystem centralized(model, o);
  TobSystem tob(model, o);
  for (ObjectSystem* system : {static_cast<ObjectSystem*>(&centralized),
                               static_cast<ObjectSystem*>(&tob)}) {
    system->sim().crash_at(500, 0);
    system->sim().invoke_at(1000, 1, reg::write(1));
    const RunOutcome outcome = system->run_with_outcome();
    EXPECT_EQ(outcome.status, RunStatus::kStalled);
    EXPECT_TRUE(outcome.history.empty());
    ASSERT_EQ(outcome.pending.size(), 1u);
    EXPECT_EQ(outcome.pending[0].proc, 1);
    for (const FaultEvent& f : system->sim().trace().faults) {
      EXPECT_NE(f.kind, FaultKind::kOperationGivenUp);
    }
  }
}

}  // namespace
}  // namespace linbound
