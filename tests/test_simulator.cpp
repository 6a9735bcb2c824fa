#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace linbound {
namespace {

struct PingPayload final : TaggedPayload<PingPayload> {
  int value = 0;
  explicit PingPayload(int v) : value(v) {}
};

/// Minimal process for exercising the simulator plumbing: echoes pings,
/// records timer firings, answers invocations with its id.
class ProbeProcess final : public Process {
 public:
  void on_message(ProcessId from, const MessagePayload& payload) override {
    const auto& ping = *payload_as<PingPayload>(payload);
    received.push_back({from, ping.value, local_time()});
  }
  void on_timer(TimerId, const TimerTag& tag) override {
    timer_fires.push_back({tag.kind, local_time()});
  }
  void on_invoke(std::int64_t token, const Operation&) override {
    respond(token, Value(static_cast<std::int64_t>(id())));
  }

  // Exported helpers so tests can drive protected Process methods.
  void do_send(ProcessId to, int v) {
    send(to, make_msg<PingPayload>(v));
  }
  void do_broadcast(int v) { broadcast(make_msg<PingPayload>(v)); }
  TimerId do_set_timer(Tick delta, int kind) {
    return set_timer(delta, TimerTag{kind, {}});
  }
  void do_cancel(TimerId id) { cancel_timer(id); }
  Tick now_local() const { return local_time(); }

  struct Received {
    ProcessId from;
    int value;
    Tick local_time;
  };
  struct TimerFire {
    int kind;
    Tick local_time;
  };
  std::vector<Received> received;
  std::vector<TimerFire> timer_fires;
};

SimConfig base_config() {
  SimConfig config;
  config.timing = SystemTiming{1000, 400, 100};
  return config;
}

TEST(Simulator, MessageDeliveredWithPolicyDelay) {
  SimConfig config = base_config();
  config.delays = std::make_shared<FixedDelayPolicy>(700);
  Simulator sim(std::move(config));
  auto* p0 = new ProbeProcess;
  auto* p1 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.add_process(std::unique_ptr<Process>(p1));
  sim.start();
  sim.call_at(100, [&] { p0->do_send(1, 42); });
  EXPECT_TRUE(sim.run());
  ASSERT_EQ(p1->received.size(), 1u);
  EXPECT_EQ(p1->received[0].from, 0);
  EXPECT_EQ(p1->received[0].value, 42);
  EXPECT_EQ(p1->received[0].local_time, 800);  // 100 + 700, zero offset

  ASSERT_EQ(sim.trace().messages.size(), 1u);
  EXPECT_EQ(sim.trace().messages[0].send_time, 100);
  EXPECT_EQ(sim.trace().messages[0].recv_time, 800);
  EXPECT_TRUE(sim.trace().audit().admissible);
}

TEST(Simulator, LocalClockUsesOffset) {
  SimConfig config = base_config();
  config.clock_offsets = {0, 60};
  Simulator sim(std::move(config));
  auto* p0 = new ProbeProcess;
  auto* p1 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.add_process(std::unique_ptr<Process>(p1));
  sim.start();
  Tick t0 = kNoTime, t1 = kNoTime;
  sim.call_at(500, [&] {
    t0 = p0->now_local();
    t1 = p1->now_local();
  });
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(t0, 500);
  EXPECT_EQ(t1, 560);
}

TEST(Simulator, TimerFiresAfterLocalDelta) {
  Simulator sim(base_config());
  auto* p0 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.start();
  sim.call_at(200, [&] { p0->do_set_timer(150, 7); });
  EXPECT_TRUE(sim.run());
  ASSERT_EQ(p0->timer_fires.size(), 1u);
  EXPECT_EQ(p0->timer_fires[0].kind, 7);
  EXPECT_EQ(p0->timer_fires[0].local_time, 350);
}

TEST(Simulator, CanceledTimerDoesNotFire) {
  Simulator sim(base_config());
  auto* p0 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.start();
  sim.call_at(100, [&] {
    const TimerId id = p0->do_set_timer(100, 1);
    p0->do_cancel(id);
  });
  EXPECT_TRUE(sim.run());
  EXPECT_TRUE(p0->timer_fires.empty());
}

TEST(Simulator, BroadcastReachesEveryoneButSender) {
  SimConfig config = base_config();
  config.delays = std::make_shared<FixedDelayPolicy>(600);
  Simulator sim(std::move(config));
  std::vector<ProbeProcess*> procs;
  for (int i = 0; i < 4; ++i) {
    auto* p = new ProbeProcess;
    procs.push_back(p);
    sim.add_process(std::unique_ptr<Process>(p));
  }
  sim.start();
  sim.call_at(0, [&] { procs[2]->do_broadcast(9); });
  EXPECT_TRUE(sim.run());
  EXPECT_TRUE(procs[2]->received.empty());
  for (int i : {0, 1, 3}) {
    ASSERT_EQ(procs[static_cast<std::size_t>(i)]->received.size(), 1u);
    EXPECT_EQ(procs[static_cast<std::size_t>(i)]->received[0].from, 2);
  }
}

TEST(Simulator, InvokeProducesOperationRecord) {
  Simulator sim(base_config());
  auto* p0 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  const std::int64_t token = sim.invoke_at(123, 0, Operation{0, {}});
  sim.start();
  EXPECT_TRUE(sim.run());
  ASSERT_LT(static_cast<std::size_t>(token), sim.trace().ops.size());
  const OperationRecord rec = sim.trace().ops[static_cast<std::size_t>(token)];
  EXPECT_EQ(rec.invoke_time, 123);
  EXPECT_EQ(rec.response_time, 123);  // ProbeProcess responds immediately
  EXPECT_EQ(rec.ret, Value(0));
  EXPECT_TRUE(sim.trace().complete());
}

TEST(Simulator, ResponseHookFires) {
  Simulator sim(base_config());
  sim.add_process(std::make_unique<ProbeProcess>());
  int hook_calls = 0;
  sim.set_response_hook([&](const OperationRecord& rec) {
    ++hook_calls;
    EXPECT_EQ(rec.ret, Value(0));
  });
  sim.invoke_at(10, 0, Operation{0, {}});
  sim.start();
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(hook_calls, 1);
}

TEST(Simulator, OverlappingInvocationsOnOneProcessThrow) {
  SimConfig config = base_config();
  Simulator sim(std::move(config));
  // A process that never responds, so a second invocation overlaps.
  class Mute final : public Process {
    void on_message(ProcessId, const MessagePayload&) override {}
    void on_invoke(std::int64_t, const Operation&) override {}
  };
  sim.add_process(std::make_unique<Mute>());
  sim.invoke_at(10, 0, Operation{0, {}});
  sim.invoke_at(20, 0, Operation{0, {}});
  sim.start();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim(base_config());
  auto* p0 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.start();
  sim.call_at(100, [&] { p0->do_set_timer(500, 3); });
  EXPECT_FALSE(sim.run_until(300));
  EXPECT_TRUE(p0->timer_fires.empty());
  EXPECT_TRUE(sim.run_until(700));
  EXPECT_EQ(p0->timer_fires.size(), 1u);
}

TEST(Simulator, AuditFlagsInadmissibleDelay) {
  SimConfig config = base_config();  // [600, 1000] admissible
  config.delays = std::make_shared<FixedDelayPolicy>(300);
  Simulator sim(std::move(config));
  auto* p0 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.add_process(std::make_unique<ProbeProcess>());
  sim.start();
  sim.call_at(0, [&] { p0->do_send(1, 1); });
  EXPECT_TRUE(sim.run());
  const AdmissibilityReport report = sim.trace().audit();
  EXPECT_FALSE(report.admissible);
  ASSERT_EQ(report.violations.size(), 1u);
}

TEST(Simulator, AuditFlagsExcessiveSkew) {
  SimConfig config = base_config();  // eps = 100
  config.clock_offsets = {0, 500};
  Simulator sim(std::move(config));
  sim.add_process(std::make_unique<ProbeProcess>());
  sim.add_process(std::make_unique<ProbeProcess>());
  sim.start();
  EXPECT_TRUE(sim.run());
  EXPECT_FALSE(sim.trace().audit().admissible);
}

TEST(Simulator, EventCapStopsRunawayRuns) {
  // A self-rearming timer never quiesces; the cap makes run() return false
  // instead of spinning forever.
  class Rearming final : public Process {
    void on_start() override { set_timer(10, TimerTag{1, {}}); }
    void on_message(ProcessId, const MessagePayload&) override {}
    void on_timer(TimerId, const TimerTag&) override {
      set_timer(10, TimerTag{1, {}});
    }
    void on_invoke(std::int64_t, const Operation&) override {}
  };
  SimConfig config = base_config();
  config.max_events = 100;
  Simulator sim(std::move(config));
  sim.add_process(std::make_unique<Rearming>());
  sim.start();
  EXPECT_FALSE(sim.run());
  EXPECT_EQ(sim.events_processed(), 100u);
}

TEST(Simulator, CrashBeforeStartOfTrafficSilencesProcess) {
  SimConfig config = base_config();
  Simulator sim(std::move(config));
  auto* p0 = new ProbeProcess;
  auto* p1 = new ProbeProcess;
  sim.add_process(std::unique_ptr<Process>(p0));
  sim.add_process(std::unique_ptr<Process>(p1));
  sim.crash_at(50, 1);
  sim.call_at(100, [&] { p0->do_send(1, 1); });   // to the dead process
  sim.call_at(100, [&] { p1->do_send(0, 2); });   // from the dead process
  sim.start();
  EXPECT_TRUE(sim.run());
  EXPECT_TRUE(p1->received.empty());
  EXPECT_TRUE(p0->received.empty());
  EXPECT_TRUE(sim.crashed(1));
  EXPECT_FALSE(sim.crashed(0));
}

TEST(Simulator, DeterministicTraces) {
  auto run_once = [] {
    SimConfig config;
    config.timing = SystemTiming{1000, 400, 100};
    config.delays = std::make_shared<UniformDelayPolicy>(config.timing, 999);
    Simulator sim(std::move(config));
    std::vector<ProbeProcess*> procs;
    for (int i = 0; i < 3; ++i) {
      auto* p = new ProbeProcess;
      procs.push_back(p);
      sim.add_process(std::unique_ptr<Process>(p));
    }
    sim.start();
    for (int round = 0; round < 5; ++round) {
      sim.call_at(round * 100, [procs, round] { procs[0]->do_broadcast(round); });
    }
    sim.run();
    std::vector<Tick> recv_times;
    for (const MessageRecord& m : sim.trace().messages) {
      recv_times.push_back(m.recv_time);
    }
    return recv_times;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace linbound
