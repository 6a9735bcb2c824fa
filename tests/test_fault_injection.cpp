// Fault injection (sim/fault_injection.h + fault/fault_policy.h): the
// injected adversaries are deterministic from their seed, invisible when
// configured with zero probabilities, and every injected fault is recorded
// in the trace and classified by the assumption monitor.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/assumption_monitor.h"
#include "fault/churn.h"
#include "fault/fault_policy.h"
#include "core/system.h"
#include "sim/trace_io.h"
#include "types/register_type.h"

namespace linbound {
namespace {

struct PingPayload final : TaggedPayload<PingPayload> {
  int value = 0;
  explicit PingPayload(int v) : value(v) {}
};

/// Echo-less probe: records deliveries with their arrival time.
class ProbeProcess final : public Process {
 public:
  void on_message(ProcessId from, const MessagePayload& payload) override {
    const auto& ping = *payload_as<PingPayload>(payload);
    received.push_back({from, ping.value, local_time()});
  }
  void on_invoke(std::int64_t token, const Operation&) override {
    respond(token, Value(static_cast<std::int64_t>(id())));
  }
  void do_send(ProcessId to, int v) {
    send(to, make_msg<PingPayload>(v));
  }

  struct Received {
    ProcessId from;
    int value;
    Tick local_time;
  };
  std::vector<Received> received;
};

SimConfig base_config() {
  SimConfig config;
  config.timing = SystemTiming{1000, 400, 100};
  return config;
}

SystemOptions system_options() {
  SystemOptions o;
  o.n = 3;
  o.timing = SystemTiming{1000, 400, 100};
  return o;
}

/// A small conflicting workload over three replicas.
void arm_workload(Simulator& sim) {
  sim.invoke_at(1000, 0, reg::write(1));
  sim.invoke_at(1100, 1, reg::rmw(2));
  sim.invoke_at(1200, 2, reg::read());
  sim.invoke_at(4000, 0, reg::read());
  sim.invoke_at(4100, 1, reg::write(3));
  sim.invoke_at(7000, 2, reg::rmw(4));
}

std::string faults_to_string(const Trace& trace) {
  std::string out;
  for (const FaultEvent& f : trace.faults) {
    out += fault_kind_name(f.kind);
    out += " t=" + std::to_string(f.time) + " p=" + std::to_string(f.proc) +
           " peer=" + std::to_string(f.peer) + " m=" + std::to_string(f.msg) +
           " mag=" + std::to_string(f.magnitude) + "\n";
  }
  return out;
}

TEST(FaultInjection, DropPreventsDelivery) {
  SimConfig config = base_config();
  config.faults = std::make_shared<DropFaultPolicy>(1.0, 1);
  Simulator sim(std::move(config));
  auto* p0 = new ProbeProcess;
  auto* p1 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.add_process(std::unique_ptr<Process>(p1));
  sim.start();
  sim.call_at(100, [&] { p0->do_send(1, 42); });
  EXPECT_TRUE(sim.run());

  EXPECT_TRUE(p1->received.empty());
  ASSERT_EQ(sim.trace().messages.size(), 1u);
  EXPECT_FALSE(sim.trace().messages[0].delivered());
  ASSERT_EQ(sim.trace().faults.size(), 1u);
  EXPECT_EQ(sim.trace().faults[0].kind, FaultKind::kMessageDropped);
  EXPECT_EQ(sim.trace().faults[0].msg, sim.trace().messages[0].id);
}

TEST(FaultInjection, DuplicateDeliversExtraCopies) {
  SimConfig config = base_config();
  config.delays = std::make_shared<FixedDelayPolicy>(800);
  config.faults = std::make_shared<DuplicateFaultPolicy>(1.0, 1, /*copies=*/2);
  Simulator sim(std::move(config));
  auto* p0 = new ProbeProcess;
  auto* p1 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.add_process(std::unique_ptr<Process>(p1));
  sim.start();
  sim.call_at(100, [&] { p0->do_send(1, 42); });
  EXPECT_TRUE(sim.run());

  // Original + 2 copies, each with its own message record and id.
  EXPECT_EQ(p1->received.size(), 3u);
  EXPECT_EQ(sim.trace().messages.size(), 3u);
  ASSERT_EQ(sim.trace().faults.size(), 2u);
  for (const FaultEvent& f : sim.trace().faults) {
    EXPECT_EQ(f.kind, FaultKind::kMessageDuplicated);
    EXPECT_EQ(f.magnitude, sim.trace().messages[0].id);  // link to original
  }
}

TEST(FaultInjection, SpikePushesDelayPastUpperBound) {
  SimConfig config = base_config();
  config.delays = std::make_shared<FixedDelayPolicy>(1000);  // exactly d
  config.faults = std::make_shared<DelaySpikeFaultPolicy>(1.0, 500, 7);
  Simulator sim(std::move(config));
  auto* p0 = new ProbeProcess;
  auto* p1 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.add_process(std::unique_ptr<Process>(p1));
  sim.start();
  sim.call_at(100, [&] { p0->do_send(1, 42); });
  EXPECT_TRUE(sim.run());

  ASSERT_EQ(p1->received.size(), 1u);
  EXPECT_GT(p1->received[0].local_time, 1100);  // beyond send + d
  EXPECT_FALSE(sim.trace().audit().admissible);
  ASSERT_EQ(sim.trace().faults.size(), 1u);
  EXPECT_EQ(sim.trace().faults[0].kind, FaultKind::kDelaySpike);
  EXPECT_GT(sim.trace().faults[0].magnitude, 0);
}

TEST(FaultInjection, StallDefersDeliveryToWindowEnd) {
  SimConfig config = base_config();
  config.delays = std::make_shared<FixedDelayPolicy>(700);
  config.faults = std::make_shared<StallFaultPolicy>(
      std::vector<StallWindow>{{1, 500, 2500}});
  Simulator sim(std::move(config));
  auto* p0 = new ProbeProcess;
  auto* p1 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.add_process(std::unique_ptr<Process>(p1));
  sim.start();
  sim.call_at(100, [&] { p0->do_send(1, 42); });  // would arrive at 800
  EXPECT_TRUE(sim.run());

  ASSERT_EQ(p1->received.size(), 1u);
  EXPECT_EQ(p1->received[0].local_time, 2500);  // deferred, not lost
  ASSERT_EQ(sim.trace().faults.size(), 1u);
  EXPECT_EQ(sim.trace().faults[0].kind, FaultKind::kProcessStalled);
  EXPECT_EQ(sim.trace().faults[0].proc, 1);
}

TEST(FaultInjection, IdenticalConfigAndSeedGiveIdenticalTraces) {
  FaultConfig faults;
  faults.drop_p = 0.3;
  faults.dup_p = 0.3;
  faults.spike_p = 0.2;
  faults.spike_max = 300;
  faults.seed = 42;

  auto run_once = [&] {
    auto model = std::make_shared<RegisterModel>();
    SystemOptions o = system_options();
    o.delays = std::make_shared<UniformDelayPolicy>(o.timing, 7);
    o.faults = make_fault_policy(faults);
    ReplicaSystem system(model, o);
    arm_workload(system.sim());
    system.sim().start();
    EXPECT_TRUE(system.sim().run());
    return std::pair<std::string, std::string>(
        trace_to_string(system.sim().trace()),
        faults_to_string(system.sim().trace()));
  };

  const auto [trace_a, faults_a] = run_once();
  const auto [trace_b, faults_b] = run_once();
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(faults_a, faults_b);
  EXPECT_FALSE(faults_a.empty());  // the config did inject something
}

TEST(FaultInjection, ZeroProbabilityConfigIsByteIdenticalToNoPolicy) {
  auto run_once = [&](bool with_vacuous_policy) {
    auto model = std::make_shared<RegisterModel>();
    SystemOptions o = system_options();
    o.delays = std::make_shared<UniformDelayPolicy>(o.timing, 11);
    if (with_vacuous_policy) {
      o.faults = make_fault_policy(FaultConfig{});  // all probabilities zero
    }
    ReplicaSystem system(model, o);
    arm_workload(system.sim());
    system.sim().start();
    EXPECT_TRUE(system.sim().run());
    EXPECT_TRUE(system.sim().trace().faults.empty());
    return trace_to_string(system.sim().trace());
  };

  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(FaultInjection, RaisingOneProbabilityKeepsOtherStreamsStable) {
  // The composed policy gives each ingredient an independent seed stream:
  // turning drops on must not reshuffle which messages get duplicated.
  auto duplicated_messages = [&](double drop_p) {
    auto model = std::make_shared<RegisterModel>();
    SystemOptions o = system_options();
    o.delays = std::make_shared<FixedDelayPolicy>(1000);
    FaultConfig faults;
    faults.drop_p = drop_p;
    faults.dup_p = 0.5;
    faults.seed = 99;
    o.faults = make_fault_policy(faults);
    ReplicaSystem system(model, o);
    arm_workload(system.sim());
    system.sim().start();
    EXPECT_TRUE(system.sim().run());
    // Count duplication decisions by position in the send sequence.
    std::vector<std::int64_t> dup_decisions;
    for (const FaultEvent& f : system.sim().trace().faults) {
      if (f.kind == FaultKind::kMessageDuplicated) {
        dup_decisions.push_back(f.magnitude);
      }
    }
    return dup_decisions;
  };

  // Drops change which sends exist downstream of lost messages, so exact
  // equality of message ids is not guaranteed -- but the *first* duplicated
  // send (before any drop can perturb the run) must be the same one.
  const auto without_drops = duplicated_messages(0.0);
  const auto with_drops = duplicated_messages(0.4);
  ASSERT_FALSE(without_drops.empty());
  ASSERT_FALSE(with_drops.empty());
  EXPECT_EQ(without_drops.front(), with_drops.front());
}

TEST(AssumptionMonitor, CleanRunReportsClean) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, system_options());
  arm_workload(system.sim());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());
  const AssumptionReport report = audit_assumptions(system.sim().trace());
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(AssumptionMonitor, ClassifiesEachInjectedFaultKind) {
  auto report_for = [&](const FaultConfig& faults) {
    auto model = std::make_shared<RegisterModel>();
    SystemOptions o = system_options();
    o.faults = make_fault_policy(faults);
    ReplicaSystem system(model, o);
    arm_workload(system.sim());
    system.sim().start();
    EXPECT_TRUE(system.sim().run());
    return audit_assumptions(system.sim().trace());
  };

  FaultConfig drops;
  drops.drop_p = 1.0;
  drops.seed = 1;
  EXPECT_TRUE(report_for(drops).violated(Assumption::kReliableDelivery));

  FaultConfig dups;
  dups.dup_p = 1.0;
  dups.seed = 1;
  EXPECT_TRUE(report_for(dups).violated(Assumption::kNoDuplication));

  FaultConfig spikes;
  spikes.spike_p = 1.0;
  spikes.spike_max = 600;
  spikes.seed = 1;
  const AssumptionReport spike_report = report_for(spikes);
  EXPECT_TRUE(spike_report.violated(Assumption::kDelayBounds))
      << spike_report.summary();

  // Window ends well before p1's next invocation at 4100: the deferred
  // 1100 invocation dispatches at 2500 and answers before 4100.
  FaultConfig stalls;
  stalls.stalls.push_back(StallWindow{1, 1000, 2500});
  EXPECT_TRUE(report_for(stalls).violated(Assumption::kNoStalls));
}

TEST(AssumptionMonitor, ClassifiesCrashes) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, system_options());
  system.sim().invoke_at(1000, 0, reg::write(5));
  system.sim().crash_at(1500, 2);
  system.sim().start();
  EXPECT_TRUE(system.sim().run());
  const AssumptionReport report = audit_assumptions(system.sim().trace());
  EXPECT_TRUE(report.violated(Assumption::kFailureFree)) << report.summary();
}

TEST(AssumptionMonitor, ViolationDetailsPinned) {
  // One hand-built trace with every violation kind, and the non-violating
  // fault kinds (spike, give-up, mode switches) mixed in: the exact detail
  // text of each violation is part of chaos results and repro output.
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 100};
  trace.clock_offsets = {0, 150, -20};
  trace.end_time = 10'000;
  const auto fault = [&](FaultKind kind, Tick time, ProcessId proc,
                         ProcessId peer, MessageId msg, Tick magnitude) {
    trace.faults.push_back(FaultEvent{kind, time, proc, peer, msg, magnitude});
  };
  fault(FaultKind::kMessageDropped, 100, 0, 1, 5, 0);
  fault(FaultKind::kMessageDuplicated, 150, 1, 2, 9, 6);
  fault(FaultKind::kDelaySpike, 160, 0, 2, 7, 700);
  fault(FaultKind::kProcessStalled, 300, 2, kNoProcess, -1, 400);
  fault(FaultKind::kProcessCrashed, 500, 2, kNoProcess, -1, 0);
  fault(FaultKind::kModeDowngrade, 600, 0, kNoProcess, -1, 1);
  fault(FaultKind::kProcessRecovered, 900, 2, kNoProcess, -1, 1);
  fault(FaultKind::kModeUpgrade, 1000, 0, kNoProcess, -1, 2);
  fault(FaultKind::kProcessCrashed, 2000, 1, kNoProcess, -1, 0);
  fault(FaultKind::kOperationGivenUp, 2500, 0, kNoProcess, -1, 3);
  const auto message = [&](MessageId id, ProcessId from, ProcessId to,
                           Tick send, Tick recv) {
    trace.messages.push_back(MessageRecord{id, from, to, send, recv});
  };
  message(5, 0, 1, 100, kNoTime);    // dropped: explained by its fault event
  message(7, 0, 2, 200, 1700);       // delay 1500 > d
  message(8, 1, 0, 300, 1100);       // in bounds
  message(10, 1, 0, 3000, kNoTime);  // lost without a trace
  message(11, 0, 1, 1500, kNoTime);  // recipient 1 crashed for good
  message(12, 0, 2, 200, kNoTime);   // recipient 2 was down, came back
  message(13, 0, 1, 9500, kNoTime);  // run ended before it was due

  const AssumptionReport report = audit_assumptions(trace);
  const std::vector<std::pair<Assumption, std::string>> want = {
      {Assumption::kReliableDelivery,
       "message 5 from 0 to 1 sent at tick 100 dropped"},
      {Assumption::kNoDuplication,
       "message 6 from 1 to 2 duplicated at tick 150 (copy id 9)"},
      {Assumption::kNoStalls, "process 2 stalled at tick 300 for 400 ticks"},
      {Assumption::kRecovering,
       "process 2 crashed at tick 500 (later recovered)"},
      {Assumption::kRecovering,
       "process 2 recovered at tick 900 (incarnation 1)"},
      {Assumption::kFailureFree, "process 1 crashed at tick 2000"},
      {Assumption::kDelayBounds,
       "message 7 from 0 to 2 sent at tick 200: delay 1500 outside [600, "
       "1000]"},
      {Assumption::kReliableDelivery,
       "message 10 from 1 to 0 sent at tick 3000 never delivered"},
      {Assumption::kFailureFree,
       "message 11 from 0 to 1 sent at tick 1500 never delivered (recipient "
       "crashed)"},
      {Assumption::kRecovering,
       "message 12 from 0 to 2 sent at tick 200 never delivered (recipient was "
       "down, later recovered)"},
      {Assumption::kClockSkew,
       "clock skew |c_0 - c_1| = 150 exceeds eps = 100"},
      {Assumption::kClockSkew,
       "clock skew |c_1 - c_2| = 170 exceeds eps = 100"},
  };
  ASSERT_EQ(report.violations.size(), want.size()) << report.summary();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(report.violations[i].assumption, want[i].first) << i;
    EXPECT_EQ(report.violations[i].detail, want[i].second) << i;
  }
}

/// FNV-1a fold of both audits of a trace: every audit_assumptions
/// violation (assumption, detail, time, proc, msg) and every line of
/// Trace::audit, so a change to the order, the text or a field moves it.
void fold_audits(std::uint64_t& h, const Trace& trace) {
  const auto bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  const auto word = [&bytes](std::int64_t x) { bytes(&x, sizeof x); };
  const AssumptionReport report = audit_assumptions(trace);
  word(static_cast<std::int64_t>(report.violations.size()));
  for (const AssumptionViolation& v : report.violations) {
    word(static_cast<std::int64_t>(v.assumption));
    bytes(v.detail.data(), v.detail.size());
    word(v.time);
    word(v.proc);
    word(v.msg);
  }
  const AdmissibilityReport audit = trace.audit();
  word(audit.admissible ? 1 : 0);
  for (const std::string& line : audit.violations) {
    bytes(line.data(), line.size());
  }
}

TEST(AssumptionMonitor, AuditsPinned) {
  std::uint64_t h = 0xcbf29ce484222325ull;

  // Hand-built edge cases: several fault events on one message (listed in
  // recording order), a process that crashes twice, a recovery recorded
  // before the crash it would have to follow, a recipient that crashes
  // only after the message was due, undelivered messages on either side
  // of the horizon, and skew on a non-adjacent pair.
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 100};
  trace.clock_offsets = {0, 60, -50, 20};
  trace.end_time = 12'000;
  const auto fault = [&](FaultKind kind, Tick time, ProcessId proc,
                         ProcessId peer, MessageId msg, Tick magnitude) {
    trace.faults.push_back(FaultEvent{kind, time, proc, peer, msg, magnitude});
  };
  const auto message = [&](MessageId id, ProcessId from, ProcessId to,
                           Tick send, Tick recv) {
    trace.messages.push_back(MessageRecord{id, from, to, send, recv});
  };
  fault(FaultKind::kProcessRecovered, 50, 3, kNoProcess, -1, 1);
  fault(FaultKind::kDelaySpike, 100, 0, 1, 4, 900);
  fault(FaultKind::kMessageDropped, 120, 1, 2, 6, 0);
  fault(FaultKind::kDelaySpike, 130, 0, 1, 4, 300);
  fault(FaultKind::kMessageDuplicated, 140, 0, 1, 5, 4);
  fault(FaultKind::kDelaySpike, 140, 0, 1, 5, 50);
  fault(FaultKind::kMessageDropped, 150, 1, 2, 6, 0);
  fault(FaultKind::kProcessCrashed, 400, 3, kNoProcess, -1, 0);
  fault(FaultKind::kProcessStalled, 700, 1, kNoProcess, -1, 250);
  fault(FaultKind::kProcessCrashed, 3000, 2, kNoProcess, -1, 0);
  fault(FaultKind::kProcessRecovered, 5000, 2, kNoProcess, -1, 2);
  fault(FaultKind::kProcessCrashed, 8000, 2, kNoProcess, -1, 0);
  fault(FaultKind::kOperationGivenUp, 8100, 1, kNoProcess, -1, 7);
  fault(FaultKind::kProcessCrashed, 9000, 0, kNoProcess, -1, 0);
  message(4, 0, 1, 100, 2300);       // two spikes, delay 2200
  message(5, 0, 1, 140, 1190);       // spiked copy, still in bounds
  message(6, 1, 2, 120, kNoTime);    // dropped twice
  message(7, 1, 3, 500, kNoTime);    // recipient crashed before, no recovery
  message(8, 0, 2, 2500, kNoTime);   // recipient 2 down, later recovered
  message(9, 1, 2, 7500, kNoTime);   // recipient 2 crashed for good after
  message(10, 2, 0, 6000, kNoTime);  // recipient 0 crashes only after due
  message(11, 3, 1, 1000, 1500);     // too fast: delay 500 < d-u
  message(12, 1, 0, 11'500, kNoTime);  // run ended first
  fold_audits(h, trace);

  // Real runs: every injected kind plus churn (recovering and permanent
  // crashes) and skew past eps, one run drained and one cut short with
  // messages in flight.
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    auto model = std::make_shared<RegisterModel>();
    SystemOptions o = system_options();
    o.n = 4;
    o.clock_offsets = {0, 40, 130, -20};
    FaultConfig faults;
    faults.seed = seed;
    faults.drop_p = 0.15;
    faults.dup_p = 0.1;
    faults.spike_p = 0.2;
    faults.spike_max = 1800;
    faults.stalls.push_back(StallWindow{1, 2000, 2600});
    faults.churn.mean_uptime = 3000;
    faults.churn.mean_downtime = 1200;
    faults.churn.start = 1500;
    faults.churn.horizon = 5000;  // every churn crash recovers by 6800
    for (const bool cut : {false, true}) {
      o.faults = make_fault_policy(faults);
      ReplicaSystem system(model, o);
      arm_workload(system.sim());
      make_churn_schedule(faults, o.n).apply(system.sim());
      system.sim().crash_at(7000, 3);  // for good
      system.sim().start();
      if (cut) {
        system.sim().run_until(6000);
      } else {
        EXPECT_TRUE(system.sim().run());
      }
      fold_audits(h, system.sim().trace());
    }
  }
  EXPECT_EQ(h, 0xc6be28764cc0eefeull) << "audit pin 0x" << std::hex << h;
}

TEST(FaultInjection, PartitionDropsOnlyCrossComponentMessages) {
  SimConfig config = base_config();
  config.delays = std::make_shared<FixedDelayPolicy>(700);
  PartitionWindow window;
  window.from = 0;
  window.until = 2000;
  window.component_of = {1, 0, 0};  // p0 alone vs {p1, p2}
  config.faults = std::make_shared<PartitionFaultPolicy>(
      std::vector<PartitionWindow>{window});
  Simulator sim(std::move(config));
  auto* p0 = new ProbeProcess;
  auto* p1 = new ProbeProcess;
  auto* p2 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.add_process(std::unique_ptr<Process>(p1));
  sim.add_process(std::unique_ptr<Process>(p2));
  sim.start();
  sim.call_at(100, [&] { p0->do_send(1, 1); });   // crosses the cut: eaten
  sim.call_at(100, [&] { p1->do_send(2, 2); });   // same side: delivered
  sim.call_at(2500, [&] { p0->do_send(1, 3); });  // after healing: delivered
  EXPECT_TRUE(sim.run());

  ASSERT_EQ(p1->received.size(), 1u);
  EXPECT_EQ(p1->received[0].value, 3);
  ASSERT_EQ(p2->received.size(), 1u);
  EXPECT_EQ(p2->received[0].value, 2);
  ASSERT_EQ(sim.trace().faults.size(), 1u);
  EXPECT_EQ(sim.trace().faults[0].kind, FaultKind::kMessageDropped);
}

TEST(FaultInjection, LinkFaultIsDirectional) {
  SimConfig config = base_config();
  config.delays = std::make_shared<FixedDelayPolicy>(700);
  config.faults = std::make_shared<LinkFaultPolicy>(
      std::vector<LinkFault>{{0, 1, /*drop_p=*/1.0, 0.0, 0}}, /*seed=*/5);
  Simulator sim(std::move(config));
  auto* p0 = new ProbeProcess;
  auto* p1 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.add_process(std::unique_ptr<Process>(p1));
  sim.start();
  sim.call_at(100, [&] { p0->do_send(1, 1); });  // 0 -> 1: configured, eaten
  sim.call_at(100, [&] { p1->do_send(0, 2); });  // 1 -> 0: untouched
  EXPECT_TRUE(sim.run());

  EXPECT_TRUE(p1->received.empty());
  ASSERT_EQ(p0->received.size(), 1u);
  EXPECT_EQ(p0->received[0].value, 2);
}

TEST(FaultInjection, LinkDelayBoostIsBoundedAndRecorded) {
  SimConfig config = base_config();
  config.delays = std::make_shared<FixedDelayPolicy>(700);
  config.faults = std::make_shared<LinkFaultPolicy>(
      std::vector<LinkFault>{{0, 1, 0.0, /*delay_p=*/1.0, /*delay_max=*/400}},
      /*seed=*/5);
  Simulator sim(std::move(config));
  auto* p0 = new ProbeProcess;
  auto* p1 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.add_process(std::unique_ptr<Process>(p1));
  sim.start();
  sim.call_at(100, [&] { p0->do_send(1, 1); });
  EXPECT_TRUE(sim.run());

  ASSERT_EQ(p1->received.size(), 1u);
  EXPECT_GT(p1->received[0].local_time, 800);          // boosted past 100+700
  EXPECT_LE(p1->received[0].local_time, 800 + 400);    // within delay_max
  ASSERT_EQ(sim.trace().faults.size(), 1u);
  EXPECT_EQ(sim.trace().faults[0].kind, FaultKind::kDelaySpike);
}

/// Construction-time validation: a typo'd config fails loudly with a message
/// naming the offending field, instead of silently always (or never) firing.
TEST(FaultValidation, PoliciesRejectOutOfRangeParametersAtConstruction) {
  EXPECT_THROW(DropFaultPolicy(1.5, 1), std::invalid_argument);
  EXPECT_THROW(DropFaultPolicy(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(DuplicateFaultPolicy(0.5, 1, -1), std::invalid_argument);
  EXPECT_THROW(DelaySpikeFaultPolicy(0.5, -100, 1), std::invalid_argument);
  EXPECT_THROW(StallFaultPolicy({{0, 500, 100}}), std::invalid_argument);
  EXPECT_THROW(StallFaultPolicy({{kNoProcess, 100, 500}}),
               std::invalid_argument);
  EXPECT_THROW(PartitionFaultPolicy({{100, 50, {0, 1}}}),
               std::invalid_argument);
  EXPECT_THROW(PartitionFaultPolicy({{50, 100, {0, -1}}}),
               std::invalid_argument);
  EXPECT_THROW(LinkFaultPolicy({{0, 1, 2.0, 0.0, 0}}, 1),
               std::invalid_argument);
  // Positive delay probability with a zero bound is a config that can never
  // fire -- almost certainly a mistake, so it is rejected too.
  EXPECT_THROW(LinkFaultPolicy({{0, 1, 0.0, 0.5, 0}}, 1),
               std::invalid_argument);
}

TEST(FaultValidation, ErrorsNameTheOffendingField) {
  FaultConfig config;
  config.spike_p = 3.0;
  try {
    config.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spike_p"), std::string::npos)
        << e.what();
  }

  FaultConfig churny;
  churny.churn.mean_uptime = -5;
  try {
    churny.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mean_uptime"), std::string::npos)
        << e.what();
  }

  try {
    StallWindow{2, 900, 400}.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("inverted"), std::string::npos)
        << e.what();
  }
}

TEST(FaultValidation, MakeFaultPolicyValidatesTheWholeConfig) {
  FaultConfig config;
  config.dup_copies = -2;
  EXPECT_THROW(make_fault_policy(config), std::invalid_argument);
  FaultConfig churny;
  churny.churn.max_down = 0;
  EXPECT_THROW(churny.validate(), std::invalid_argument);
}

TEST(AssumptionMonitor, AttributesCombinedPartitionChurnSpikeStorm) {
  // The full storm at once -- a healed partition, crash/recovery churn, and
  // delay spikes -- with every ingredient attributed to its own assumption:
  // the streams stay separable even when stacked.
  auto model = std::make_shared<RegisterModel>();
  SystemOptions o = system_options();
  FaultConfig faults;
  faults.seed = 77;
  faults.spike_p = 0.5;
  faults.spike_max = 2500;  // far past d = 1000
  PartitionWindow window;
  window.from = 1000;
  window.until = 3500;
  window.component_of = {1, 0, 0};  // process 0 alone vs {1, 2}
  faults.partitions.push_back(window);
  faults.churn.mean_uptime = 4000;
  faults.churn.mean_downtime = 1500;
  faults.churn.start = 1500;
  faults.churn.horizon = 9000;
  faults.churn.max_down = 1;
  o.faults = make_fault_policy(faults);
  ReplicaSystem system(model, o);
  arm_workload(system.sim());
  const ChurnSchedule churn = make_churn_schedule(faults, o.n);
  ASSERT_FALSE(churn.empty());
  churn.apply(system.sim());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());

  const AssumptionReport report = audit_assumptions(system.sim().trace());
  EXPECT_TRUE(report.violated(Assumption::kDelayBounds)) << report.summary();
  EXPECT_TRUE(report.violated(Assumption::kReliableDelivery))
      << report.summary();
  // Every churn crash recovered, so the failures attribute to the
  // crash-recovery assumption, not to a permanent-failure one.
  EXPECT_TRUE(report.violated(Assumption::kRecovering)) << report.summary();

  // Same config, same seed: the stacked storm is still deterministic.
  // (A fresh policy -- the first run consumed the shared one's streams.)
  o.faults = make_fault_policy(faults);
  ReplicaSystem again(model, o);
  arm_workload(again.sim());
  churn.apply(again.sim());
  again.sim().start();
  EXPECT_TRUE(again.sim().run());
  EXPECT_EQ(trace_to_string(system.sim().trace()),
            trace_to_string(again.sim().trace()));
}

TEST(AssumptionMonitor, AttributionSentenceNamesTheAssumption) {
  auto model = std::make_shared<RegisterModel>();
  SystemOptions o = system_options();
  FaultConfig faults;
  faults.drop_p = 1.0;
  faults.seed = 3;
  o.faults = make_fault_policy(faults);
  ReplicaSystem system(model, o);
  arm_workload(system.sim());
  system.sim().start();
  EXPECT_TRUE(system.sim().run());
  const AssumptionReport report = audit_assumptions(system.sim().trace());
  const std::string attribution = report.attribute(/*linearizable=*/false);
  EXPECT_NE(attribution.find("reliable-delivery"), std::string::npos)
      << attribution;
}

}  // namespace
}  // namespace linbound
