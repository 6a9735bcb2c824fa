// The chaos engine's single-run core: one fully-specified adversarial run,
// judged by a stack of oracles.
//
// A ChaosRunSpec is self-contained -- system shape, variant, planted
// mutant, workload, seeds, fault configuration, watchdog budgets -- and
// every derived quantity (delay policy, clock offsets, client scripts,
// churn schedule) is a pure function of it, so a spec alone reproduces a
// run byte-for-byte on any machine.  A ChaosRunSpec maps onto the shared
// run builder's RunSpec (harness/experiment.h), whose simulate builds and
// runs the system and whose measure reads it off; this file keeps the
// oracles, the trace hash and the determinism replay.  run_chaos executes
// the spec once, recording the fault layer's concrete decisions into a
// FaultScript, judges that run with the layered oracles below, then
// simulates the spec a second time for the determinism oracle.  The second
// run's trace is compared with the first's field by field (same_trace) and
// its script with the first's -- nothing else reads it, so it is neither
// judged nor hashed:
//
//   kAborted           the watchdog ended the run: the deterministic event
//                      budget tripped (always reproducible) or the
//                      wall-clock guard fired in either run (CI safety net;
//                      flagged non-reproducible, never shrunk);
//   kNonLinearizable   the checker rejected the history *and* the variant's
//                      guarantee applied (see below) -- a real bug;
//   kBoundViolated     an operation exceeded its per-class latency bound
//                      while the assumption monitor saw a clean run;
//   kNonDeterministic  the two runs produced different traces or fault
//                      scripts (the detail says which, with both trace
//                      hashes or the first differing decision);
//   kOk                none of the above.
//
// Guarantee gating is what keeps the linearizability oracle sound: Algorithm
// 1's correctness is conditional on its model, so a non-linearizable outcome
// only counts when the model (as the variant defines it) actually held.
// Stock runs count only when the assumption monitor is clean; hardened and
// recoverable runs count only when the reliable link never gave up
// (link_give_ups == 0: every message was eventually delivered, so the
// *effective* model -- delivery within d_eff -- held) and no process died
// without the crash-recovery protocol.  A violation that survives this gate
// cannot be explained away by "the faults broke the model": the
// implementation is at fault.  DESIGN.md section 12 gives the full argument.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "chaos/fault_script.h"
#include "harness/experiment.h"

namespace linbound {

/// Deliberately planted bugs the engine must find (validation of the whole
/// search/shrink pipeline) -- each squeezes a wait below what the paper's
/// safety argument needs.
enum class ChaosMutant {
  kNone,         ///< the real implementation
  kEagerMop,     ///< mutator acks before eps (Theorem D.1 territory)
  kEagerAop,     ///< accessor responds before the broadcasts can arrive
  kNarrowWaits,  ///< hardened variant computing waits from the *un-widened*
                 ///< timing: one retransmission pushes delivery past the d
                 ///< its holdback assumed
};

/// Client workload shape (small value domains, conflict-heavy).
enum class ChaosWorkload { kRegister, kQueue, kSet };

enum class ChaosVerdict {
  kOk,
  kNonLinearizable,
  kBoundViolated,
  kAborted,
  kNonDeterministic,
};

const char* chaos_variant_name(ChaosVariant v);
const char* chaos_mutant_name(ChaosMutant m);
const char* chaos_workload_name(ChaosWorkload w);
const char* chaos_verdict_name(ChaosVerdict v);
std::optional<ChaosVariant> parse_chaos_variant(const std::string& name);
std::optional<ChaosMutant> parse_chaos_mutant(const std::string& name);
std::optional<ChaosWorkload> parse_chaos_workload(const std::string& name);
std::optional<ChaosVerdict> parse_chaos_verdict(const std::string& name);

/// Everything one adversarial run depends on.  Serializable ("spec" section
/// of the chaosrepro format); validate() rejects nonsense up front with the
/// same construction-time checks the fault layer applies.
struct ChaosRunSpec {
  int n = 3;
  SystemTiming timing;
  Tick x = 0;
  ChaosVariant variant = ChaosVariant::kStock;
  ChaosMutant mutant = ChaosMutant::kNone;
  ChaosWorkload workload = ChaosWorkload::kRegister;
  int ops_per_client = 6;
  Tick think_time = 0;
  /// Seeds the delay adversary + clock offsets and the client scripts; the
  /// fault layer's randomness is FaultConfig::seed.
  std::uint64_t delay_seed = 1;
  std::uint64_t workload_seed = 1;
  FaultConfig faults;
  /// Deterministic watchdog: the run is cut (kAborted) after exactly this
  /// many simulator events.  Must be > 0.
  std::size_t event_budget = 200'000;
  /// Wall-clock safety net in milliseconds; 0 disables.  Trips are
  /// machine-dependent, so they are reported but never shrunk or bundled.
  std::int64_t wall_budget_ms = 0;

  void validate() const;
};

struct ChaosRunResult {
  ChaosVerdict verdict = ChaosVerdict::kOk;
  RunStatus status = RunStatus::kComplete;
  bool linearizable = true;
  /// The assumption monitor saw nothing broken (paper model held).
  bool assumptions_clean = true;
  /// The variant's guarantee applied to this run (see header comment).
  bool guarantee_applies = true;
  /// Hardened/recoverable link give-ups summed over replicas (0 for stock).
  std::int64_t link_give_ups = 0;
  /// Worst observed latency minus its per-class bound, over all classes;
  /// <= 0 when every class stayed in bound.  Fixed-mode variants only: a
  /// degraded run trades latency for availability by design.
  Tick worst_excess = 0;
  /// Mode switches the supervisor recorded (mode-switching variant; 0
  /// elsewhere) -- counted from the trace's kModeDowngrade/kModeUpgrade
  /// events, so replay reproduces them too.
  int downgrades = 0;
  int upgrades = 0;
  /// Most processes crashed at once at any point of the run.
  int max_concurrent_down = 0;
  std::uint64_t trace_hash = 0;
  /// The wall-clock guard (not the event budget) caused the abort: the
  /// result is machine-dependent and must not be shrunk or bundled.
  bool wall_clock_tripped = false;
  /// Recorded (run_chaos) or replayed (replay_chaos) fault decisions.
  FaultScript script;
  std::string detail;  ///< human-readable account of the verdict

  bool violation() const { return verdict != ChaosVerdict::kOk; }
  /// A violation worth shrinking and bundling: deterministic by
  /// construction (wall-clock trips and determinism failures are not).
  bool reproducible_violation() const {
    return violation() && !wall_clock_tripped &&
           verdict != ChaosVerdict::kNonDeterministic;
  }
};

/// The object model a workload runs against.
std::shared_ptr<const ObjectModel> chaos_model(ChaosWorkload workload);

/// Execute and judge the spec, recording the fault script, then simulate it
/// again and compare trace and script (determinism oracle).
ChaosRunResult run_chaos(const ChaosRunSpec& spec);

/// The determinism oracle's account of a double run: empty when the replay
/// reproduced the first run (same_trace and the same fault script), else
/// which part diverged -- the trace, with both trace hashes, or the fault
/// script, with its first differing decision.
std::string replay_divergence(const Trace& first,
                              const FaultScript& first_script,
                              const Trace& replay,
                              const FaultScript& replay_script);

/// Execute the spec once with the fault layer scripted: the given decisions
/// at their msg_seqs, no fault anywhere else.  Stalls and churn still come
/// from spec.faults (they are config-driven, not per-send).  Replaying the
/// full recorded script reproduces run_chaos's trace byte-for-byte.
ChaosRunResult replay_chaos(const ChaosRunSpec& spec,
                            const FaultScript& script);

/// A self-contained, minimized reproduction: the spec, the (shrunk) fault
/// script, and the expected outcome.  Serialized as "chaosrepro v1";
/// replay_bundle re-runs it and checks both verdict and trace hash.
struct ReproBundle {
  ChaosRunSpec spec;
  FaultScript script;
  ChaosVerdict expected_verdict = ChaosVerdict::kOk;
  std::uint64_t expected_hash = 0;
};

void write_repro_bundle(std::ostream& os, const ReproBundle& bundle);
std::string repro_bundle_to_string(const ReproBundle& bundle);
std::optional<ReproBundle> read_repro_bundle(std::istream& is,
                                             std::string* error = nullptr);
std::optional<ReproBundle> repro_bundle_from_string(const std::string& text,
                                                    std::string* error = nullptr);

struct ReplayOutcome {
  ChaosRunResult result;
  bool verdict_matches = false;
  bool hash_matches = false;

  bool ok() const { return verdict_matches && hash_matches; }
};

/// Replay a bundle and compare against its expectations.
ReplayOutcome replay_bundle(const ReproBundle& bundle);

}  // namespace linbound
