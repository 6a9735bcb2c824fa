// Recorded runs.
//
// A Trace is the executable counterpart of the paper's "run": the timed
// views of all processes, represented by what the lower-bound proofs
// actually consume -- message send/receive real times and operation
// invocation/response real times -- plus the clock offsets and timing
// parameters.  The audit() method decides admissibility exactly as in
// Chapter III.B.3.
#pragma once

#include <string>
#include <vector>

#include "common/time.h"
#include "common/value.h"
#include "sim/message.h"
#include "spec/operation.h"

namespace linbound {

struct MessageRecord {
  MessageId id = 0;
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  Tick send_time = kNoTime;  ///< real time
  Tick recv_time = kNoTime;  ///< real time; kNoTime if not delivered in the run

  bool delivered() const { return recv_time != kNoTime; }
  Tick delay() const { return recv_time - send_time; }
};

/// One operation execution at the application layer.
struct OperationRecord {
  std::int64_t token = 0;  ///< unique per run
  ProcessId proc = kNoProcess;
  Operation op;
  Tick invoke_time = kNoTime;    ///< real time of the invocation
  Tick response_time = kNoTime;  ///< real time of the response; kNoTime if pending
  Value ret;
  /// Set when the implementation explicitly abandoned the operation
  /// (graceful degradation: e.g. the centralized client timed out on a dead
  /// coordinator).  The operation still counts as pending for checking
  /// purposes; give_up_time records when it was abandoned.
  bool gave_up = false;
  Tick give_up_time = kNoTime;

  bool completed() const { return response_time != kNoTime; }
  Tick latency() const { return response_time - invoke_time; }
};

/// Kinds of model-assumption breakage the simulator can record.  Injected
/// faults (src/sim/fault_injection.h) and crashes land here; the assumption
/// monitor turns these into per-assumption attributions.
enum class FaultKind {
  kMessageDropped,    ///< a send was lost by the fault policy
  kMessageDuplicated, ///< an extra copy of a send was delivered
  kDelaySpike,        ///< the fault policy added delay_boost to a delivery
  kProcessStalled,    ///< an event was deferred past a stall window
  kProcessCrashed,    ///< crash_at took effect
  kOperationGivenUp,  ///< an implementation abandoned a pending operation
  kProcessRecovered,  ///< recover_at restarted a crashed process
  /// The synchrony supervisor switched the system into degraded
  /// (asynchronous-quorum) mode after observing the [d-u, d]/eps envelope
  /// violated (src/degrade/synchrony_monitor.h).  magnitude carries the
  /// target era.  Not an assumption violation: it is the system's reaction
  /// to one, recorded so mode changes are trace-visible and replayable.
  kModeDowngrade,
  /// The supervisor switched back to the synchronous algorithm after a
  /// clean observation window.  magnitude carries the target era.
  kModeUpgrade,
  kFaultKindCount,    ///< sentinel; keep last (exhaustiveness tests)
};

/// One injected fault / failure, as it happened.
struct FaultEvent {
  FaultKind kind{};
  Tick time = kNoTime;          ///< real time of the event
  ProcessId proc = kNoProcess;  ///< crashed/stalled process, or the sender
  ProcessId peer = kNoProcess;  ///< message recipient where applicable
  MessageId msg = -1;           ///< affected message id; -1 when none
  /// Spike boost, stall deferral length, duplicate's original message id,
  /// or the given-up operation token -- per kind.
  Tick magnitude = 0;
};

const char* fault_kind_name(FaultKind kind);

/// Inverse of fault_kind_name (trace deserialization); returns
/// kFaultKindCount for an unknown name.
FaultKind fault_kind_from_name(const std::string& name);

struct AdmissibilityReport {
  bool admissible = true;
  std::vector<std::string> violations;

  void fail(std::string why) {
    admissible = false;
    violations.push_back(std::move(why));
  }
};

/// Hot-path measurement counters filled in by the simulator.  These are
/// ephemeral run statistics for benches and tests -- NOT part of the
/// recorded run: trace_io neither serializes nor restores them, so adding
/// counters never perturbs archived traces or byte-identity comparisons.
struct TraceStats {
  std::uint64_t timers_set = 0;        ///< set_timer calls
  std::uint64_t timers_cancelled = 0;  ///< cancel_timer on a still-armed timer
  /// Queued timer events skipped at dispatch because their slot generation
  /// no longer matched (lazily cancelled, recycled, or killed by a crash
  /// epoch) -- the events the seed simulator popped and discarded.
  std::uint64_t timers_purged = 0;
  /// Always 0 (delivery is per message); read only by perfbench/harness.cpp.
  std::uint64_t deliver_batches = 0;
  /// Always 0 (delivery is per message); read only by perfbench/harness.cpp.
  std::uint64_t batched_messages = 0;
};

struct Trace {
  SystemTiming timing;
  std::vector<Tick> clock_offsets;  ///< c_i: local = real + c_i
  std::vector<MessageRecord> messages;
  std::vector<OperationRecord> ops;
  /// Injected faults and failures, in event order; empty for a run under
  /// the paper's base model (no fault policy, no crashes).
  std::vector<FaultEvent> faults;
  Tick end_time = 0;  ///< real time at which the run ended
  /// Simulator hot-path counters (timer lifecycle); ephemeral, see above.
  TraceStats stats;

  /// Chapter III admissibility: every delivered delay in [d-u, d]; pairwise
  /// clock skew <= eps.  Undelivered messages are admissible only if the
  /// run ended before send_time + d (the recipient's view "ends before
  /// t + d").  Violations name the offending message: sender, recipient,
  /// send tick, message id and the observed delay against [d-u, d].
  AdmissibilityReport audit() const;

  /// Fault events affecting message `id`, in order.
  std::vector<FaultEvent> faults_for_message(MessageId id) const;

  /// All operations completed?
  bool complete() const;

  /// Records of completed operations only.
  std::vector<OperationRecord> completed_ops() const;

  /// Worst-case latency among completed operations selected by `pred`;
  /// kNoTime when none matched.
  template <typename Pred>
  Tick worst_latency(Pred pred) const {
    Tick worst = kNoTime;
    for (const OperationRecord& rec : ops) {
      if (!rec.completed() || !pred(rec)) continue;
      if (worst == kNoTime || rec.latency() > worst) worst = rec.latency();
    }
    return worst;
  }
};

}  // namespace linbound
