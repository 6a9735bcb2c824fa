// Recorded runs.
//
// A Trace is the executable counterpart of the paper's "run": the timed
// views of all processes, represented by what the lower-bound proofs
// actually consume -- message send/receive real times and operation
// invocation/response real times -- plus the clock offsets and timing
// parameters.  The audit() method decides admissibility exactly as in
// Chapter III.B.3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/flat_map.h"
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

  friend bool operator==(const MessageRecord&, const MessageRecord&) = default;

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

/// A trace's operations, stored compactly: one 48-byte slot per operation
/// (DESIGN.md section 15), against 152 bytes for an OperationRecord.
///
/// Values are 8-byte handles with a kind tag beside them in the slot: unit,
/// bool and int sit inline; strings and lists go to one per-log side table
/// of Values.  A token equal to the slot's index (the simulator assigns
/// tokens that way) is implicit.  A differing token (read_trace and
/// chop_trace can make one), a give-up time, and a process id or opcode
/// past 16 bits go to a sparse per-index cold table, and an argument list
/// longer than two goes to the side table as one list.  A register run
/// touches neither table, so appending stays allocation-free once the
/// slots are reserved.
///
/// Reads materialise: operator[], at() and the iterators return a const
/// OperationRecord by value, so `for (const OperationRecord& rec : ops)`
/// reads as it always did -- but the record lives for one loop step, and
/// an address taken from it dangles after.  Keep indices instead.  The
/// single-field accessors (token, proc, code, the times, ret and arg) read
/// a slot without materialising it; trace_io formats and compares traces
/// through them.  Writes go through append, stamp_invoke, respond and
/// give_up.
class OpLog {
 public:
  enum class Kind : std::uint8_t { kUnit, kInt, kBool, kSide };

  /// One stored value, read in place: unit, int and bool inline in `bits`,
  /// anything else (`kSide`) at `side`, in the log's side table.  Valid
  /// until the log changes.
  struct ValueRef {
    Kind kind = Kind::kUnit;
    std::int64_t bits = 0;
    const Value* side = nullptr;

    Value value() const;
    friend bool operator==(const ValueRef& a, const ValueRef& b);
  };

  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = OperationRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = const OperationRecord;

    const_iterator(const OpLog* log, std::size_t i) : log_(log), i_(i) {}
    const OperationRecord operator*() const { return (*log_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const OpLog* log_;
    std::size_t i_;
  };

  std::size_t size() const { return slots_.size(); }
  std::size_t capacity() const { return slots_.capacity(); }
  void reserve(std::size_t n) { slots_.reserve(n); }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, slots_.size()}; }

  /// The record at index `i`, materialised.  at() throws std::out_of_range.
  /// The copy is const, so a write through it (`ops[i].ret = v`) does not
  /// compile instead of silently changing nothing.
  const OperationRecord operator[](std::size_t i) const;
  const OperationRecord at(std::size_t i) const;

  /// Single fields, without materialising the record.
  std::int64_t token(std::size_t i) const;
  ProcessId proc(std::size_t i) const;
  OpCode code(std::size_t i) const;
  ValueRef ret(std::size_t i) const {
    return ref(slots_[i].ret_kind, slots_[i].ret);
  }
  std::size_t arg_count(std::size_t i) const;
  ValueRef arg(std::size_t i, std::size_t a) const;
  Tick invoke_time(std::size_t i) const { return slots_[i].invoke_time; }
  Tick response_time(std::size_t i) const { return slots_[i].response_time; }
  bool completed(std::size_t i) const { return response_time(i) != kNoTime; }
  bool gave_up(std::size_t i) const { return slots_[i].gave_up; }

  /// Append `rec` as index size(); every field materialises back equal.
  void append(const OperationRecord& rec);
  void stamp_invoke(std::size_t i, Tick t) { slots_[i].invoke_time = t; }
  void respond(std::size_t i, Tick t, const Value& ret);
  void give_up(std::size_t i, Tick t);

 private:
  /// `argc` value for an argument list kept whole in the side table.
  static constexpr std::uint8_t kSpilledArgs = 3;

  struct Slot {
    Tick invoke_time = kNoTime;
    Tick response_time = kNoTime;
    std::int64_t ret = 0;
    std::int64_t args[2] = {0, 0};
    std::int16_t proc = 0;
    std::int16_t code = 0;
    Kind ret_kind = Kind::kUnit;
    Kind arg_kind[2] = {Kind::kUnit, Kind::kUnit};
    std::uint8_t argc : 2 = 0;
    std::uint8_t gave_up : 1 = 0;
    std::uint8_t cold : 1 = 0;  ///< token/proc/code/give-up time in cold_
  };

  /// The fields a slot keeps out of line, whole.
  struct Cold {
    std::int64_t token = 0;
    ProcessId proc = kNoProcess;
    OpCode code = 0;
    Tick give_up_time = kNoTime;
  };

 public:
  /// Bytes per operation in the log (the bound tests/test_trace.cpp pins).
  static constexpr std::size_t kSlotBytes = sizeof(Slot);
  static_assert(kSlotBytes <= 48, "an operation slot must stay within 48 B");

 private:
  std::int64_t put(const Value& v, Kind& kind);
  ValueRef ref(Kind kind, std::int64_t bits) const {
    return {kind, bits,
            kind == Kind::kSide ? &side_[static_cast<std::size_t>(bits)]
                                : nullptr};
  }
  /// The argument list kept whole in the side table (argc == kSpilledArgs).
  const Value::List& spilled_args(std::size_t i) const {
    return side_[static_cast<std::size_t>(slots_[i].args[0])].as_list();
  }

  std::vector<Slot> slots_;
  std::vector<Value> side_;          ///< string and list values, by handle
  FlatMap<std::size_t, Cold> cold_;  ///< by slot index; sparse
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

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
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
  OpLog ops;
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

  /// All operations completed?
  bool complete() const;

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
