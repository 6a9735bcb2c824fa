#include "chaos/chaos.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/workload.h"
#include "sim/trace_io.h"
#include "types/queue_type.h"
#include "types/register_type.h"
#include "types/set_type.h"

namespace linbound {
namespace {

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

/// The planted mutant's waits; none for the real implementation.
std::optional<AlgorithmDelays> mutant_delays(const ChaosRunSpec& spec) {
  switch (spec.mutant) {
    case ChaosMutant::kNone:
      break;
    case ChaosMutant::kEagerMop:
      // Half the skew bound: far enough below eps that random sequential
      // writes across skewed clocks get misordered timestamps (the
      // hand-built Theorem D.1 scenarios shave only 2 ticks; a searchable
      // mutant has to be findable from random workloads).
      return AlgorithmDelays::eager_mop(spec.timing, spec.x,
                                        spec.timing.eps / 2);
    case ChaosMutant::kEagerAop:
      return AlgorithmDelays::eager_aop(
          spec.timing, spec.x, std::max<Tick>(0, spec.timing.min_delay() / 2));
    case ChaosMutant::kNarrowWaits:
      // The bug under test: a hardened replica whose waits were computed
      // from the *raw* timing, as if retransmissions could never push a
      // delivery past d.
      return AlgorithmDelays::standard(spec.timing, spec.x);
  }
  return std::nullopt;
}

/// The run builder's spec for a chaos spec under the given fault policy.
RunSpec run_spec(const ChaosRunSpec& spec,
                 std::shared_ptr<FaultPolicy> policy) {
  RunSpec run;
  run.model = chaos_model(spec.workload);
  run.n = spec.n;
  run.timing = spec.timing;
  run.x = spec.x;
  run.variant = spec.variant;
  run.algorithm_delays = mutant_delays(spec);
  run.delays = derive_delays(spec);
  run.clock_offsets = derive_offsets(spec);
  run.fault_policy = std::move(policy);
  run.faults = spec.faults;
  run.scripts = client_scripts(
      spec.n, Rng(spec.workload_seed), spec.think_time,
      [&](ProcessId, Rng& rng) {
        return chaos_ops(spec.workload, rng, spec.ops_per_client);
      });
  // Degradation systems answer crash-cut operations themselves from the
  // durable quorum log; a client retry would race that late response.
  run.reissue_cut_ops = !degradation_variant(spec.variant);
  run.event_budget = spec.event_budget;
  run.wall_budget_ms = spec.wall_budget_ms;
  return run;
}

/// Does the spec's storm heal on its own?  The degraded-mode oracle only
/// demands liveness when it does: total loss, an unhealed partition, an
/// endless stall or a process still down at the end excuse a stalled run.
bool storm_heals(const ChaosRunSpec& spec, const RunMeasure& exec) {
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
  if (exec.down_at_end != 0) return false;
  if (2 * exec.max_concurrent_down >= spec.n) return false;
  if (spec.variant == ChaosVariant::kModeSwitching &&
      exec.crashes_outside_degraded != 0) {
    return false;  // pause-resume crash: outside the switching promise
  }
  return true;
}

/// Worst observed latency minus its per-class bound, against the delays the
/// run actually used (mutants are judged against their own, shorter bounds
/// -- the eager variants fail linearizability, not their self-declared
/// latency).  The degradation variants trade latency for availability by
/// design and carry no fixed per-class bound, so they keep it at 0.
Tick worst_excess(const Simulation& run) {
  Tick excess = 0;
  if (!run.algorithm_delays) return excess;
  LatencyReport latency;
  latency.absorb(run.system->model(), run.trace());
  for (const OpClass cls : {OpClass::kPureMutator, OpClass::kPureAccessor,
                            OpClass::kOther}) {
    const Tick worst = latency.worst_for_class(cls);
    if (worst == kNoTime) continue;
    excess = std::max(excess, worst - run.algorithm_delays->bound(cls));
  }
  return excess;
}

/// Measure, judge and hash one simulation of the spec.
ChaosRunResult judge(const ChaosRunSpec& spec, const Simulation& run) {
  const RunMeasure exec = measure(run);
  ChaosRunResult r;
  r.status = exec.status;
  r.linearizable = exec.linearizable;
  r.assumptions_clean = exec.report.clean();
  r.link_give_ups = exec.link_give_ups;
  r.worst_excess = worst_excess(run);
  r.trace_hash = hash_trace(run.trace());
  r.wall_clock_tripped = run.wall_clock_tripped;
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
    detail << (run.wall_clock_tripped ? "wall-clock budget exceeded"
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
  } else if (r.assumptions_clean && r.worst_excess > 0) {
    r.verdict = ChaosVerdict::kBoundViolated;
    detail << "latency bound exceeded by " << r.worst_excess
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

std::string replay_divergence(const Trace& first,
                              const FaultScript& first_script,
                              const Trace& replay,
                              const FaultScript& replay_script) {
  std::ostringstream out;
  if (!same_trace(first, replay)) {
    out << "double-run divergence: trace hash " << std::hex
        << hash_trace(first) << " vs " << hash_trace(replay);
    return out.str();
  }
  const std::vector<ScriptedDecision>& a = first_script.decisions;
  const std::vector<ScriptedDecision>& b = replay_script.decisions;
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  if (i == a.size() && i == b.size()) return "";
  const auto decision = [](const std::vector<ScriptedDecision>& ds,
                           std::size_t k) {
    if (k >= ds.size()) return std::string("none");
    const ScriptedDecision& d = ds[k];
    return "msg " + std::to_string(d.msg_seq) + " drop " +
           std::to_string(d.decision.drop ? 1 : 0) + " copies " +
           std::to_string(d.decision.extra_copies) + " boost " +
           std::to_string(d.decision.delay_boost);
  };
  out << "double-run divergence: fault script decision " << i << " is "
      << decision(a, i) << " vs " << decision(b, i);
  return out.str();
}

ChaosRunResult run_chaos(const ChaosRunSpec& spec) {
  spec.validate();
  const auto recorder = recording_policy(spec);
  Simulation first = simulate(run_spec(spec, recorder));
  ChaosRunResult result = judge(spec, first);
  result.script = recorder->script();
  if (result.wall_clock_tripped) return result;  // cut at a wall-dependent point
  // Only the first run's trace is kept for the comparison; its system goes
  // before the replay is built.
  const Trace first_trace = first.system->sim().release_trace();
  first.system.reset();

  // Determinism oracle: an independent second execution from the same spec
  // must reproduce the trace field for field (and the same fault script).
  // It is compared with the first run, not judged or hashed.
  const auto replay_recorder = recording_policy(spec);
  const Simulation replay = simulate(run_spec(spec, replay_recorder));
  if (replay.wall_clock_tripped) {
    // The replay was cut at a wall-dependent point, so its trace says
    // nothing about determinism: report the trip, not a divergence.
    result.verdict = ChaosVerdict::kAborted;
    result.wall_clock_tripped = true;
    result.detail = "wall-clock budget exceeded in the determinism replay";
    return result;
  }
  std::string divergence = replay_divergence(
      first_trace, result.script, replay.trace(), replay_recorder->script());
  if (!divergence.empty()) {
    result.verdict = ChaosVerdict::kNonDeterministic;
    result.detail = std::move(divergence);
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
  ChaosRunResult result = judge(spec, simulate(run_spec(spec, policy)));
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
