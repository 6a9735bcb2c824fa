// FaultScript recording, replay and serialization: the chaos engine's
// repro-fidelity contract.  Replaying the full recorded script of any run
// must reproduce that run byte-for-byte (same trace hash), and the
// faultscript text format must round-trip exactly.
#include <gtest/gtest.h>

#include <sstream>

#include "chaos/chaos.h"
#include "chaos/fault_script.h"
#include "fault/fault_policy.h"
#include "sim/trace_io.h"

namespace linbound {
namespace {

std::string script_text(const FaultScript& script) {
  std::ostringstream os;
  write_fault_script(os, script);
  return os.str();
}

TEST(FaultScriptIo, RoundTripsDecisions) {
  FaultScript script;
  script.decisions.push_back({3, FaultDecision{true, 0, 0}});
  script.decisions.push_back({17, FaultDecision{false, 2, 0}});
  script.decisions.push_back({42, FaultDecision{false, 0, 350}});
  script.decisions.push_back({99, FaultDecision{true, 1, 80}});

  const std::string text = script_text(script);
  std::string error;
  const auto parsed = fault_script_from_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(*parsed == script);
  EXPECT_EQ(script_text(*parsed), text);
}

TEST(FaultScriptIo, EmptyScriptRoundTrips) {
  const std::string text = script_text(FaultScript{});
  const auto parsed = fault_script_from_string(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(FaultScriptIo, RejectsMalformedInput) {
  EXPECT_FALSE(fault_script_from_string("nonsense").has_value());
  EXPECT_FALSE(
      fault_script_from_string("faultscript v1\ndecision -1 0 0 0\nend\n")
          .has_value());
  EXPECT_FALSE(
      fault_script_from_string("faultscript v1\ndecision 3 2 0 0\nend\n")
          .has_value());
  // Missing end marker.
  EXPECT_FALSE(fault_script_from_string("faultscript v1\ndecision 3 1 0 0\n")
                   .has_value());
  std::string error;
  EXPECT_FALSE(fault_script_from_string("faultscript v1\nbogus\nend\n", &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ScriptedFaultPolicy, ScriptedDecisionsAndDefaultsElsewhere) {
  FaultScript script;
  script.decisions.push_back({9, FaultDecision{false, 1, 120}});
  script.decisions.push_back({5, FaultDecision{true, 0, 0}});  // out of order
  ScriptedFaultPolicy policy(std::move(script));

  EXPECT_TRUE(policy.on_send(0, 1, 1000, 5).drop);
  const FaultDecision dup = policy.on_send(1, 2, 2000, 9);
  EXPECT_FALSE(dup.drop);
  EXPECT_EQ(dup.extra_copies, 1);
  EXPECT_EQ(dup.delay_boost, 120);
  const FaultDecision miss = policy.on_send(0, 1, 1000, 6);
  EXPECT_FALSE(miss.drop);
  EXPECT_EQ(miss.extra_copies, 0);
  EXPECT_EQ(miss.delay_boost, 0);
}

TEST(RecordingFaultPolicy, RecordsOnlyNonDefaultDecisions) {
  FaultConfig config;
  config.drop_p = 0.5;
  config.seed = 7;
  RecordingFaultPolicy recorder(make_fault_policy(config));
  int dropped = 0;
  for (std::int64_t seq = 0; seq < 100; ++seq) {
    if (recorder.on_send(0, 1, 1000 + seq, seq).drop) ++dropped;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, 100);
  EXPECT_EQ(static_cast<int>(recorder.script().size()), dropped);
  for (const ScriptedDecision& d : recorder.script().decisions) {
    EXPECT_TRUE(d.decision.drop);
  }
}

/// The core fidelity contract, exercised over every fault ingredient:
/// replaying the full recorded script of a run reproduces that run's trace
/// hash and verdict exactly.
class ReplayFidelityTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplayFidelityTest, FullScriptReplayIsByteIdentical) {
  ChaosRunSpec spec;
  spec.n = 3;
  spec.timing = SystemTiming{1000, 400, 300};
  spec.variant = ChaosVariant::kHardened;
  spec.workload = ChaosWorkload::kRegister;
  spec.ops_per_client = 5;
  spec.delay_seed = 0xabc + static_cast<std::uint64_t>(GetParam());
  spec.workload_seed = 0xdef + static_cast<std::uint64_t>(GetParam());
  spec.faults.seed = 0x123 + static_cast<std::uint64_t>(GetParam());
  switch (GetParam() % 5) {
    case 0:
      spec.faults.drop_p = 0.2;
      break;
    case 1:
      spec.faults.dup_p = 0.2;
      spec.faults.dup_copies = 2;
      spec.faults.spike_p = 0.1;
      spec.faults.spike_max = 400;
      break;
    case 2: {
      PartitionWindow w;
      w.from = 1500;
      w.until = 3500;
      w.component_of = {1, 0, 0};
      spec.faults.partitions.push_back(w);
      break;
    }
    case 3:
      spec.faults.links.push_back(LinkFault{0, 1, 0.3, 0.2, 300});
      spec.faults.stalls.push_back(StallWindow{1, 2000, 4000});
      break;
    default:
      spec.faults.drop_p = 0.1;
      spec.faults.churn.mean_uptime = 8000;
      spec.faults.churn.mean_downtime = 2000;
      spec.faults.churn.start = 1000;
      spec.faults.churn.horizon = 12000;
      spec.faults.churn.max_down = 1;
      spec.variant = ChaosVariant::kRecoverable;
      break;
  }

  const ChaosRunResult recorded = run_chaos(spec);
  ASSERT_NE(recorded.verdict, ChaosVerdict::kNonDeterministic)
      << recorded.detail;
  const ChaosRunResult replayed = replay_chaos(spec, recorded.script);
  EXPECT_EQ(replayed.trace_hash, recorded.trace_hash)
      << "cell " << GetParam() % 5 << ": replay diverged from the recording";
  EXPECT_EQ(replayed.verdict, recorded.verdict)
      << "recorded: " << recorded.detail << " / replayed: " << replayed.detail;
}

INSTANTIATE_TEST_SUITE_P(Cells, ReplayFidelityTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace linbound
