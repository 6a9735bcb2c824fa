#include "chaos/chaos.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/driver.h"
#include "core/workload.h"
#include "degrade/degrade_system.h"
#include "fault/assumption_monitor.h"
#include "fault/churn.h"
#include "harness/latency.h"
#include "sim/trace_io.h"
#include "types/queue_type.h"
#include "types/register_type.h"
#include "types/set_type.h"

namespace linbound {
namespace {

/// Virtual-time slice between watchdog checks.  Part of the run's
/// definition: run_until stamps the trace end time with the slice horizon,
/// so record, replay and both determinism runs must use the same value.
constexpr Tick kWatchdogSlice = 50'000;

bool fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

}  // namespace

const char* chaos_variant_name(ChaosVariant v) {
  switch (v) {
    case ChaosVariant::kStock: return "stock";
    case ChaosVariant::kHardened: return "hardened";
    case ChaosVariant::kRecoverable: return "recoverable";
    case ChaosVariant::kModeSwitching: return "mode-switching";
    case ChaosVariant::kQuorum: return "quorum";
  }
  return "?";
}

const char* chaos_mutant_name(ChaosMutant m) {
  switch (m) {
    case ChaosMutant::kNone: return "none";
    case ChaosMutant::kEagerMop: return "eager-mop";
    case ChaosMutant::kEagerAop: return "eager-aop";
    case ChaosMutant::kNarrowWaits: return "narrow-waits";
  }
  return "?";
}

const char* chaos_workload_name(ChaosWorkload w) {
  switch (w) {
    case ChaosWorkload::kRegister: return "register";
    case ChaosWorkload::kQueue: return "queue";
    case ChaosWorkload::kSet: return "set";
  }
  return "?";
}

const char* chaos_verdict_name(ChaosVerdict v) {
  switch (v) {
    case ChaosVerdict::kOk: return "ok";
    case ChaosVerdict::kNonLinearizable: return "non-linearizable";
    case ChaosVerdict::kBoundViolated: return "bound-violated";
    case ChaosVerdict::kAborted: return "aborted";
    case ChaosVerdict::kNonDeterministic: return "non-deterministic";
  }
  return "?";
}

std::optional<ChaosVariant> parse_chaos_variant(const std::string& name) {
  for (ChaosVariant v :
       {ChaosVariant::kStock, ChaosVariant::kHardened,
        ChaosVariant::kRecoverable, ChaosVariant::kModeSwitching,
        ChaosVariant::kQuorum}) {
    if (name == chaos_variant_name(v)) return v;
  }
  return std::nullopt;
}

std::optional<ChaosMutant> parse_chaos_mutant(const std::string& name) {
  for (ChaosMutant m : {ChaosMutant::kNone, ChaosMutant::kEagerMop,
                        ChaosMutant::kEagerAop, ChaosMutant::kNarrowWaits}) {
    if (name == chaos_mutant_name(m)) return m;
  }
  return std::nullopt;
}

std::optional<ChaosWorkload> parse_chaos_workload(const std::string& name) {
  for (ChaosWorkload w : {ChaosWorkload::kRegister, ChaosWorkload::kQueue,
                          ChaosWorkload::kSet}) {
    if (name == chaos_workload_name(w)) return w;
  }
  return std::nullopt;
}

std::optional<ChaosVerdict> parse_chaos_verdict(const std::string& name) {
  for (ChaosVerdict v :
       {ChaosVerdict::kOk, ChaosVerdict::kNonLinearizable,
        ChaosVerdict::kBoundViolated, ChaosVerdict::kAborted,
        ChaosVerdict::kNonDeterministic}) {
    if (name == chaos_verdict_name(v)) return v;
  }
  return std::nullopt;
}

void ChaosRunSpec::validate() const {
  if (n < 2) {
    throw std::invalid_argument("ChaosRunSpec n must be >= 2, got " +
                                std::to_string(n));
  }
  if (!timing.valid()) {
    throw std::invalid_argument("ChaosRunSpec timing is invalid (need d > 0, "
                                "0 <= u <= d, eps >= 0)");
  }
  if (x < 0 || x > timing.d + timing.eps - timing.u) {
    throw std::invalid_argument("ChaosRunSpec x must lie in [0, d+eps-u]");
  }
  if (ops_per_client < 1) {
    throw std::invalid_argument("ChaosRunSpec ops_per_client must be >= 1");
  }
  if (think_time < 0) {
    throw std::invalid_argument("ChaosRunSpec think_time must be >= 0");
  }
  if (event_budget == 0) {
    throw std::invalid_argument("ChaosRunSpec event_budget must be > 0");
  }
  if (wall_budget_ms < 0) {
    throw std::invalid_argument("ChaosRunSpec wall_budget_ms must be >= 0");
  }
  if (mutant == ChaosMutant::kNarrowWaits &&
      variant != ChaosVariant::kHardened) {
    throw std::invalid_argument(
        "ChaosRunSpec narrow-waits mutant requires the hardened variant");
  }
  if ((mutant == ChaosMutant::kEagerMop || mutant == ChaosMutant::kEagerAop) &&
      variant != ChaosVariant::kStock) {
    throw std::invalid_argument(
        "ChaosRunSpec eager mutants require the stock variant");
  }
  if ((variant == ChaosVariant::kModeSwitching ||
       variant == ChaosVariant::kQuorum) &&
      mutant != ChaosMutant::kNone) {
    throw std::invalid_argument(
        "ChaosRunSpec mutants are Algorithm 1 delay bugs; the degradation "
        "variants take none");
  }
  faults.validate();
}

std::shared_ptr<const ObjectModel> chaos_model(ChaosWorkload workload) {
  switch (workload) {
    case ChaosWorkload::kRegister: return std::make_shared<RegisterModel>();
    case ChaosWorkload::kQueue: return std::make_shared<QueueModel>();
    case ChaosWorkload::kSet: return std::make_shared<SetModel>();
  }
  return std::make_shared<RegisterModel>();
}

namespace {

std::vector<Operation> chaos_ops(ChaosWorkload workload, Rng& rng, int count) {
  const OpMix mix{2, 2, 1};
  switch (workload) {
    case ChaosWorkload::kRegister: return random_register_ops(rng, count, mix);
    case ChaosWorkload::kQueue: return random_queue_ops(rng, count, mix);
    case ChaosWorkload::kSet: return random_set_ops(rng, count, mix);
  }
  return {};
}

/// The delay adversary and clock offsets, derived purely from delay_seed:
/// half the seeds use the extremal (all-fast-or-all-slow) policy with
/// alternating 0/eps offsets -- the corner the eager lower-bound mutants
/// break in -- and half use uniform delays with uniform offsets.
std::shared_ptr<DelayPolicy> derive_delays(const ChaosRunSpec& spec) {
  Rng rng = Rng(spec.delay_seed).split(0xde1a);
  if (rng.chance(0.5)) {
    return std::make_shared<ExtremalDelayPolicy>(spec.timing, rng.next_u64());
  }
  return std::make_shared<UniformDelayPolicy>(spec.timing, rng.next_u64());
}

std::vector<Tick> derive_offsets(const ChaosRunSpec& spec) {
  Rng rng = Rng(spec.delay_seed).split(0xc10c);
  const bool extreme = rng.chance(0.5);
  std::vector<Tick> offsets;
  offsets.reserve(static_cast<std::size_t>(spec.n));
  for (int i = 0; i < spec.n; ++i) {
    offsets.push_back(extreme ? (i % 2 ? spec.timing.eps : 0)
                              : rng.uniform_tick(0, spec.timing.eps));
  }
  return offsets;
}

/// The worst injected one-way delay boost the hardened link must absorb for
/// the run to stay inside its effective model.
Tick boost_margin(const FaultConfig& faults) {
  Tick margin = faults.spike_max;
  for (const LinkFault& link : faults.links) {
    margin = std::max(margin, link.delay_max);
  }
  return margin;
}

/// One deterministic simulation of the spec: the built system, run until
/// it drained or a watchdog cut it.  Owns the system, so the trace stays
/// readable until the Simulation is destroyed.
struct Simulation {
  std::shared_ptr<const ObjectModel> model;
  std::unique_ptr<ObjectSystem> system;
  /// The delays the latency oracle judges against; null for the
  /// degradation variants, which carry no fixed per-class bound.
  const AlgorithmDelays* judged_delays = nullptr;
  bool drained = false;
  bool wall_clock_tripped = false;

  const Trace& trace() const { return system->sim().trace(); }
};

/// What the oracles read off one simulation.
struct Execution {
  RunStatus status = RunStatus::kComplete;
  bool linearizable = true;
  std::string explanation;
  AssumptionReport report;
  std::int64_t link_give_ups = 0;
  Tick worst_excess = 0;
  std::uint64_t trace_hash = 0;
  bool wall_clock_tripped = false;
  // Degradation accounting (from the trace's fault events).
  int downgrades = 0;
  int upgrades = 0;
  int max_concurrent_down = 0;
  int crashed_at_end = 0;
  /// Crashes that struck in synchronous mode with no downgrade afterwards:
  /// the one crash shape mode switching does not promise to absorb
  /// (pause-resume; see mode_switching_replica.h).
  int crashes_outside_degraded = 0;
};

bool degradation_variant(ChaosVariant v) {
  return v == ChaosVariant::kModeSwitching || v == ChaosVariant::kQuorum;
}

/// Fill Execution's degradation counters from the recorded fault events.
void absorb_degradation_events(const Trace& trace, Execution* out) {
  std::vector<Tick> downgrade_times;
  for (const FaultEvent& f : trace.faults) {
    if (f.kind == FaultKind::kModeDowngrade) downgrade_times.push_back(f.time);
  }
  int down = 0;
  bool degraded = false;
  for (const FaultEvent& f : trace.faults) {
    switch (f.kind) {
      case FaultKind::kModeDowngrade:
        ++out->downgrades;
        degraded = true;
        break;
      case FaultKind::kModeUpgrade:
        ++out->upgrades;
        degraded = false;
        break;
      case FaultKind::kProcessCrashed: {
        ++down;
        out->max_concurrent_down = std::max(out->max_concurrent_down, down);
        const bool covered =
            degraded || std::any_of(downgrade_times.begin(),
                                    downgrade_times.end(),
                                    [&](Tick t) { return t >= f.time; });
        if (!covered) ++out->crashes_outside_degraded;
        break;
      }
      case FaultKind::kProcessRecovered:
        --down;
        break;
      default:
        break;
    }
  }
  out->crashed_at_end = down;
}

/// Does the spec's storm heal on its own?  The degraded-mode oracle only
/// demands liveness when it does: total loss, an unhealed partition, an
/// endless stall or a process still down at the end excuse a stalled run.
bool storm_heals(const ChaosRunSpec& spec, const Execution& exec) {
  if (spec.faults.drop_p >= 1.0) return false;
  for (const LinkFault& link : spec.faults.links) {
    if (link.drop_p >= 1.0) return false;
  }
  for (const PartitionWindow& w : spec.faults.partitions) {
    if (w.until == kTimeInfinity) return false;
  }
  for (const StallWindow& w : spec.faults.stalls) {
    if (w.until == kTimeInfinity) return false;
  }
  if (exec.crashed_at_end != 0) return false;
  if (2 * exec.max_concurrent_down >= spec.n) return false;
  if (spec.variant == ChaosVariant::kModeSwitching &&
      exec.crashes_outside_degraded != 0) {
    return false;  // pause-resume crash: outside the switching promise
  }
  return true;
}

/// Build the spec's system under the given fault policy and run it through
/// the watchdog loop.  Everything a run's trace depends on happens here.
Simulation simulate(const ChaosRunSpec& spec,
                    const std::shared_ptr<FaultPolicy>& policy) {
  Simulation out;
  out.model = chaos_model(spec.workload);

  SystemOptions sys;
  sys.n = spec.n;
  sys.timing = spec.timing;
  sys.x = spec.x;
  sys.delays = derive_delays(spec);
  sys.clock_offsets = derive_offsets(spec);
  sys.faults = policy;
  sys.max_events = spec.event_budget;
  switch (spec.variant) {
    case ChaosVariant::kStock:
    case ChaosVariant::kQuorum:
      break;
    case ChaosVariant::kHardened:
    case ChaosVariant::kModeSwitching: {
      // The switching variant rides the same reliable link in its sync
      // eras; the margin keeps pre-downgrade responses inside the widened
      // model while the supervisor gathers its evidence (spiked deliveries
      // still land past the raw d, so they count as violations).
      HardenedParams hp;
      hp.spike_margin = boost_margin(spec.faults);
      sys.hardened = hp;
      break;
    }
    case ChaosVariant::kRecoverable: {
      RecoverableParams rp;
      rp.link.spike_margin = boost_margin(spec.faults);
      sys.recoverable = rp;
      break;
    }
  }
  switch (spec.mutant) {
    case ChaosMutant::kNone:
      break;
    case ChaosMutant::kEagerMop:
      // Half the skew bound: far enough below eps that random sequential
      // writes across skewed clocks get misordered timestamps (the
      // hand-built Theorem D.1 scenarios shave only 2 ticks; a searchable
      // mutant has to be findable from random workloads).
      sys.algorithm_delays = AlgorithmDelays::eager_mop(
          spec.timing, spec.x, spec.timing.eps / 2);
      break;
    case ChaosMutant::kEagerAop:
      sys.algorithm_delays = AlgorithmDelays::eager_aop(
          spec.timing, spec.x, std::max<Tick>(0, spec.timing.min_delay() / 2));
      break;
    case ChaosMutant::kNarrowWaits:
      // The bug under test: a hardened replica whose waits were computed
      // from the *raw* timing, as if retransmissions could never push a
      // delivery past d.
      sys.algorithm_delays = AlgorithmDelays::standard(spec.timing, spec.x);
      break;
  }

  const bool degrade = degradation_variant(spec.variant);
  if (degrade) {
    DegradeOptions dopt;
    dopt.base = sys;
    dopt.switching = spec.variant == ChaosVariant::kModeSwitching;
    out.system = std::make_unique<DegradeSystem>(out.model, dopt);
  } else {
    auto rs = std::make_unique<ReplicaSystem>(out.model, sys);
    out.judged_delays = &rs->algorithm_delays();
    out.system = std::move(rs);
  }

  Rng wl_rng(spec.workload_seed);
  std::vector<ClientScript> scripts;
  scripts.reserve(static_cast<std::size_t>(spec.n));
  for (int pid = 0; pid < spec.n; ++pid) {
    Rng client_rng = wl_rng.split(static_cast<std::uint64_t>(pid));
    scripts.push_back(ClientScript{static_cast<ProcessId>(pid),
                                   chaos_ops(spec.workload, client_rng,
                                             spec.ops_per_client),
                                   /*start_time=*/1000, spec.think_time});
  }
  // Degradation systems answer crash-cut operations themselves from the
  // durable quorum log; a client retry would race that late response.  The
  // driver's part ends with the run: nothing after simulate() runs the sim.
  Simulator& sim = out.system->sim();
  WorkloadDriver driver(sim, std::move(scripts), {}, {},
                        /*reissue_cut_ops=*/!degrade);
  driver.arm();

  if (spec.faults.churn.any()) {
    make_churn_schedule(spec.faults, spec.n).apply(sim);
  }

  // The watchdog loop: advance in fixed virtual-time slices, checking the
  // wall clock between slices.  The event budget is the simulator's own
  // max_events, so a budget abort lands after *exactly* event_budget events
  // -- deterministic, hence shrinkable; a wall-clock trip is not.
  sim.start();
  Tick horizon = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  for (;;) {
    horizon += kWatchdogSlice;
    if (!sim.event_queue().empty() && sim.event_queue().next_time() > horizon) {
      // Nothing due this slice; jump to the next event (still a multiple of
      // nothing -- the horizon only stamps the trace at the end of the run).
      horizon = sim.event_queue().next_time();
    }
    out.drained = sim.run_until(horizon);
    if (out.drained) break;
    if (sim.events_processed() >= spec.event_budget) break;
    if (spec.wall_budget_ms > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - wall_start);
      if (elapsed.count() > spec.wall_budget_ms) {
        out.wall_clock_tripped = true;
        break;
      }
    }
  }
  return out;
}

/// Everything the oracles read off a simulation: history and checker
/// verdict, assumption audit, link give-ups, latency excess, degradation
/// events and the trace hash.
Execution measure(const ChaosRunSpec& spec, const Simulation& run) {
  const Trace& trace = run.trace();
  Simulator& sim = run.system->sim();
  Execution out;
  out.wall_clock_tripped = run.wall_clock_tripped;
  auto [history, pending] = history_with_pending(trace);
  out.status = !run.drained ? RunStatus::kAborted
               : pending.empty() ? RunStatus::kComplete
                                 : RunStatus::kStalled;
  const CheckResult check = check_linearizable_with_pending(
      *run.model, history, pending, CheckOptions{});
  out.linearizable = check.ok;
  out.explanation = check.explanation;
  out.report = audit_assumptions(trace);

  if (spec.variant != ChaosVariant::kStock) {
    // Covers the mode-switching replica too (it *is* a hardened replica in
    // its synchronous eras); the quorum variant has no reliable link.
    for (int pid = 0; pid < spec.n; ++pid) {
      if (const auto* h = dynamic_cast<const HardenedReplicaProcess*>(
              &sim.process(pid))) {
        out.link_give_ups += h->link_give_ups();
      }
    }
  }

  // Per-class latency excess against the delays the run actually used
  // (mutants are judged against their own, shorter bounds -- the eager
  // variants fail linearizability, not their self-declared latency).  The
  // degradation variants trade latency for availability by design and carry
  // no fixed per-class bound, so they keep worst_excess at 0.
  if (run.judged_delays) {
    LatencyReport latency;
    latency.absorb(*run.model, trace);
    const AlgorithmDelays& delays = *run.judged_delays;
    const auto excess = [&](OpClass cls, Tick bound) {
      const Tick worst = latency.worst_for_class(cls);
      if (worst == kNoTime) return;
      out.worst_excess = std::max(out.worst_excess, worst - bound);
    };
    excess(OpClass::kPureMutator, delays.mop_ack);
    excess(OpClass::kPureAccessor, delays.aop_respond);
    excess(OpClass::kOther, delays.self_add + delays.holdback);
  }
  absorb_degradation_events(trace, &out);

  out.trace_hash = hash_trace(trace);
  return out;
}

/// Simulate and measure; the system is torn down before this returns.
Execution execute_once(const ChaosRunSpec& spec,
                       const std::shared_ptr<FaultPolicy>& policy) {
  return measure(spec, simulate(spec, policy));
}

/// Fill the oracle verdict from one execution's measurements.
ChaosRunResult judge(const ChaosRunSpec& spec, const Execution& exec) {
  ChaosRunResult r;
  r.status = exec.status;
  r.linearizable = exec.linearizable;
  r.assumptions_clean = exec.report.clean();
  r.link_give_ups = exec.link_give_ups;
  r.worst_excess = exec.worst_excess;
  r.trace_hash = exec.trace_hash;
  r.wall_clock_tripped = exec.wall_clock_tripped;
  r.downgrades = exec.downgrades;
  r.upgrades = exec.upgrades;
  r.max_concurrent_down = exec.max_concurrent_down;

  // The variant's guarantee: stock Algorithm 1 promises nothing once any
  // model assumption broke; the hardened/recoverable variants promise
  // linearizability as long as their link delivered everything (no
  // give-ups), nobody died outside the crash-recovery protocol, and no
  // process was stalled (stalls are outside every variant's model).
  switch (spec.variant) {
    case ChaosVariant::kStock:
      r.guarantee_applies = r.assumptions_clean;
      break;
    case ChaosVariant::kHardened:
      r.guarantee_applies =
          exec.link_give_ups == 0 &&
          !exec.report.violated(Assumption::kFailureFree) &&
          !exec.report.violated(Assumption::kRecovering) &&
          !exec.report.violated(Assumption::kNoStalls);
      break;
    case ChaosVariant::kRecoverable:
      r.guarantee_applies = exec.link_give_ups == 0 &&
                            !exec.report.violated(Assumption::kNoStalls);
      break;
    case ChaosVariant::kModeSwitching:
      // Safety holds through any delay behaviour; only a crashed *majority*
      // (which could split the quorum log) voids the promise.
      r.guarantee_applies = 2 * exec.max_concurrent_down < spec.n;
      break;
    case ChaosVariant::kQuorum:
      // Paxos safety needs no timing assumptions at all.
      r.guarantee_applies = true;
      break;
  }

  std::ostringstream detail;
  if (exec.status == RunStatus::kAborted) {
    r.verdict = ChaosVerdict::kAborted;
    detail << (exec.wall_clock_tripped ? "wall-clock budget exceeded"
                                       : "event budget exceeded")
           << " before quiescence";
  } else if (!exec.linearizable && r.guarantee_applies) {
    r.verdict = ChaosVerdict::kNonLinearizable;
    detail << "non-linearizable while the "
           << chaos_variant_name(spec.variant)
           << " guarantee applied: " << exec.explanation;
  } else if (exec.status == RunStatus::kStalled &&
             degradation_variant(spec.variant) && storm_heals(spec, exec)) {
    // The degraded-mode liveness oracle: the whole point of the fallback is
    // availability, so pending operations after a storm that healed -- and
    // left a live majority -- are a violation, not an excuse.
    r.verdict = ChaosVerdict::kAborted;
    detail << "degraded-mode oracle: operations left pending although the "
              "storm healed and a majority stayed up (downgrades="
           << exec.downgrades << ", upgrades=" << exec.upgrades << ")";
  } else if (exec.status == RunStatus::kStalled && r.assumptions_clean &&
             !degradation_variant(spec.variant)) {
    // Operations left unanswered although the model held end to end.
    r.verdict = ChaosVerdict::kAborted;
    detail << "operations left pending in a clean run";
  } else if (r.assumptions_clean && exec.worst_excess > 0) {
    r.verdict = ChaosVerdict::kBoundViolated;
    detail << "latency bound exceeded by " << exec.worst_excess
           << " ticks in a clean run";
  } else {
    r.verdict = ChaosVerdict::kOk;
    if (!exec.linearizable) {
      detail << "non-linearizable but out of coverage ("
             << exec.report.attribute(false)
             << ", give-ups=" << exec.link_give_ups << ")";
    } else {
      detail << "ok";
    }
  }
  r.detail = detail.str();
  return r;
}

std::shared_ptr<RecordingFaultPolicy> recording_policy(
    const ChaosRunSpec& spec) {
  std::shared_ptr<FaultPolicy> inner;
  if (spec.faults.any()) inner = make_fault_policy(spec.faults);
  return std::make_shared<RecordingFaultPolicy>(std::move(inner));
}

}  // namespace

ChaosRunResult run_chaos(const ChaosRunSpec& spec) {
  spec.validate();
  const auto recorder = recording_policy(spec);
  ChaosRunResult result = judge(spec, execute_once(spec, recorder));
  result.script = recorder->script();
  if (result.wall_clock_tripped) return result;  // cut at a wall-dependent point

  // Determinism oracle: an independent second execution from the same spec
  // must reproduce the trace bit-for-bit (and the same fault script).  Only
  // its hash and script are compared, so it is simulated, not judged.
  const auto replay_recorder = recording_policy(spec);
  const Simulation replay = simulate(spec, replay_recorder);
  if (replay.wall_clock_tripped) {
    // The replay was cut at a wall-dependent point, so its hash says
    // nothing about determinism: report the trip, not a divergence.
    result.verdict = ChaosVerdict::kAborted;
    result.wall_clock_tripped = true;
    result.detail = "wall-clock budget exceeded in the determinism replay";
    return result;
  }
  const std::uint64_t replay_hash = hash_trace(replay.trace());
  if (replay_hash != result.trace_hash ||
      !(replay_recorder->script() == result.script)) {
    result.verdict = ChaosVerdict::kNonDeterministic;
    std::ostringstream detail;
    detail << "double-run divergence: trace hash " << std::hex
           << result.trace_hash << " vs " << replay_hash;
    result.detail = detail.str();
  }
  return result;
}

ChaosRunResult replay_chaos(const ChaosRunSpec& spec,
                            const FaultScript& script) {
  spec.validate();
  std::vector<std::shared_ptr<FaultPolicy>> children;
  children.push_back(std::make_shared<ScriptedFaultPolicy>(script));
  if (!spec.faults.stalls.empty()) {
    children.push_back(std::make_shared<StallFaultPolicy>(spec.faults.stalls));
  }
  const auto policy =
      std::make_shared<ComposedFaultPolicy>(std::move(children));
  ChaosRunResult result = judge(spec, execute_once(spec, policy));
  result.script = script;
  return result;
}

// --- chaosrepro v1 serialization ------------------------------------------

void write_repro_bundle(std::ostream& os, const ReproBundle& bundle) {
  const ChaosRunSpec& s = bundle.spec;
  os << "chaosrepro v1\n";
  os << "system " << s.n << " " << s.timing.d << " " << s.timing.u << " "
     << s.timing.eps << " " << s.x << " " << chaos_variant_name(s.variant)
     << " " << chaos_mutant_name(s.mutant) << " "
     << chaos_workload_name(s.workload) << " " << s.ops_per_client << " "
     << s.think_time << "\n";
  os << "seeds " << s.delay_seed << " " << s.workload_seed << "\n";
  os << "budget " << s.event_budget << " " << s.wall_budget_ms << "\n";
  os << std::setprecision(17);
  os << "faults " << s.faults.seed << " " << s.faults.drop_p << " "
     << s.faults.dup_p << " " << s.faults.dup_copies << " " << s.faults.spike_p
     << " " << s.faults.spike_max << "\n";
  os << "churn " << s.faults.churn.mean_uptime << " "
     << s.faults.churn.mean_downtime << " " << s.faults.churn.start << " "
     << s.faults.churn.horizon << " " << s.faults.churn.max_down << "\n";
  for (const StallWindow& w : s.faults.stalls) {
    os << "stall " << w.pid << " " << w.from << " " << w.until << "\n";
  }
  for (const PartitionWindow& w : s.faults.partitions) {
    os << "partition " << w.from << " " << w.until << " "
       << w.component_of.size();
    for (int c : w.component_of) os << " " << c;
    os << "\n";
  }
  for (const LinkFault& link : s.faults.links) {
    os << "link " << link.from << " " << link.to << " " << link.drop_p << " "
       << link.delay_p << " " << link.delay_max << "\n";
  }
  os << "expect " << chaos_verdict_name(bundle.expected_verdict) << " "
     << bundle.expected_hash << "\n";
  write_fault_script(os, bundle.script);
}

std::string repro_bundle_to_string(const ReproBundle& bundle) {
  std::ostringstream os;
  write_repro_bundle(os, bundle);
  return os.str();
}

std::optional<ReproBundle> read_repro_bundle(std::istream& is,
                                             std::string* error) {
  std::string line;
  if (!std::getline(is, line) || line != "chaosrepro v1") {
    fail(error, "missing 'chaosrepro v1' header");
    return std::nullopt;
  }
  ReproBundle bundle;
  ChaosRunSpec& s = bundle.spec;
  bool saw_system = false, saw_expect = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line == "faultscript v1") {
      if (!saw_system || !saw_expect) {
        fail(error, "faultscript before a complete spec");
        return std::nullopt;
      }
      // Hand the already-consumed header back to the script reader by
      // parsing the remainder ourselves through a rebuilt stream.
      std::ostringstream rest;
      rest << line << "\n" << is.rdbuf();
      auto script = fault_script_from_string(rest.str(), error);
      if (!script) return std::nullopt;
      bundle.script = std::move(*script);
      try {
        s.validate();
      } catch (const std::invalid_argument& e) {
        fail(error, std::string("invalid spec: ") + e.what());
        return std::nullopt;
      }
      return bundle;
    }
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "system") {
      std::string variant, mutant, workload;
      ls >> s.n >> s.timing.d >> s.timing.u >> s.timing.eps >> s.x >> variant >>
          mutant >> workload >> s.ops_per_client >> s.think_time;
      const auto v = parse_chaos_variant(variant);
      const auto m = parse_chaos_mutant(mutant);
      const auto w = parse_chaos_workload(workload);
      if (ls.fail() || !v || !m || !w) {
        fail(error, "malformed system line: " + line);
        return std::nullopt;
      }
      s.variant = *v;
      s.mutant = *m;
      s.workload = *w;
      saw_system = true;
    } else if (kind == "seeds") {
      ls >> s.delay_seed >> s.workload_seed;
      if (ls.fail()) {
        fail(error, "malformed seeds line: " + line);
        return std::nullopt;
      }
    } else if (kind == "budget") {
      ls >> s.event_budget >> s.wall_budget_ms;
      if (ls.fail()) {
        fail(error, "malformed budget line: " + line);
        return std::nullopt;
      }
    } else if (kind == "faults") {
      ls >> s.faults.seed >> s.faults.drop_p >> s.faults.dup_p >>
          s.faults.dup_copies >> s.faults.spike_p >> s.faults.spike_max;
      if (ls.fail()) {
        fail(error, "malformed faults line: " + line);
        return std::nullopt;
      }
    } else if (kind == "churn") {
      ls >> s.faults.churn.mean_uptime >> s.faults.churn.mean_downtime >>
          s.faults.churn.start >> s.faults.churn.horizon >>
          s.faults.churn.max_down;
      if (ls.fail()) {
        fail(error, "malformed churn line: " + line);
        return std::nullopt;
      }
    } else if (kind == "stall") {
      StallWindow w;
      ls >> w.pid >> w.from >> w.until;
      if (ls.fail()) {
        fail(error, "malformed stall line: " + line);
        return std::nullopt;
      }
      s.faults.stalls.push_back(w);
    } else if (kind == "partition") {
      PartitionWindow w;
      std::size_t count = 0;
      ls >> w.from >> w.until >> count;
      if (ls.fail() || count > 1024) {
        fail(error, "malformed partition line: " + line);
        return std::nullopt;
      }
      w.component_of.resize(count);
      for (std::size_t i = 0; i < count; ++i) ls >> w.component_of[i];
      if (ls.fail()) {
        fail(error, "malformed partition line: " + line);
        return std::nullopt;
      }
      s.faults.partitions.push_back(std::move(w));
    } else if (kind == "link") {
      LinkFault link;
      ls >> link.from >> link.to >> link.drop_p >> link.delay_p >>
          link.delay_max;
      if (ls.fail()) {
        fail(error, "malformed link line: " + line);
        return std::nullopt;
      }
      s.faults.links.push_back(link);
    } else if (kind == "expect") {
      std::string verdict;
      ls >> verdict >> bundle.expected_hash;
      const auto v = parse_chaos_verdict(verdict);
      if (ls.fail() || !v) {
        fail(error, "malformed expect line: " + line);
        return std::nullopt;
      }
      bundle.expected_verdict = *v;
      saw_expect = true;
    } else {
      fail(error, "unknown chaosrepro line: " + line);
      return std::nullopt;
    }
  }
  fail(error, "chaosrepro missing its faultscript section");
  return std::nullopt;
}

std::optional<ReproBundle> repro_bundle_from_string(const std::string& text,
                                                    std::string* error) {
  std::istringstream is(text);
  return read_repro_bundle(is, error);
}

ReplayOutcome replay_bundle(const ReproBundle& bundle) {
  ReplayOutcome out;
  out.result = replay_chaos(bundle.spec, bundle.script);
  out.verdict_matches = out.result.verdict == bundle.expected_verdict;
  out.hash_matches = out.result.trace_hash == bundle.expected_hash;
  return out;
}

}  // namespace linbound
