// Algorithm 1 of the paper (Chapter V): a linearizable implementation of an
// arbitrary data type that beats the folklore 2d bound.
//
// Every process keeps a full copy of the object.  Operations are stamped
// with <local clock, pid> timestamps and applied to every copy in timestamp
// order; the timing parameters make that order safe:
//
//   OOP (mutating + returning, e.g. RMW/pop/dequeue):
//     broadcast <op, ts>; the sender adds it to its own To_Execute queue
//     after d-u (as if through the fastest message); every holder waits
//     u+eps after adding before executing -- by then no smaller-timestamped
//     operation can still arrive (Lemma C.8).  The response is produced by
//     the sender's own execution.  Worst case d+eps.
//
//   MOP (pure mutators, e.g. write/enqueue/push):
//     same broadcast/execute path, but the ack is returned early, eps+X
//     after invocation -- returning nothing, a pure mutator only has to be
//     slow enough (>= eps) that non-overlapping mutators get ordered
//     timestamps (Lemma C.11).
//
//   AOP (pure accessors, e.g. read/peek):
//     not broadcast at all.  The timestamp is back-dated by X ("pretending
//     it was invoked X earlier"), and the response comes d+eps-X after
//     invocation, at which point every operation with a smaller timestamp
//     has been executed locally (Lemma C.9).
//
// X in [0, d+eps-u] trades accessor latency against mutator latency:
// |MOP| = eps+X, |AOP| = d+eps-X, |MOP|+|AOP| = d+2eps.
//
// The same class also serves as the *eager* (deliberately too fast) variant
// used by the lower-bound demonstrations: AlgorithmDelays can be constructed
// with shortened waits, which preserves the code path while breaking the
// safety argument -- exactly the "assume a faster implementation exists"
// step of the proofs.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/timestamp.h"
#include "core/pending_tables.h"
#include "core/to_execute.h"
#include "sim/process.h"
#include "spec/object_model.h"

namespace linbound {

struct AlgorithmDelays {
  Tick self_add = 0;     ///< sender queues its own op after this (paper: d-u)
  Tick holdback = 0;     ///< wait after queueing before executing (u+eps)
  Tick mop_ack = 0;      ///< pure-mutator response delay (eps+X)
  Tick aop_respond = 0;  ///< pure-accessor response delay (d+eps-X)
  Tick aop_backdate = 0; ///< accessor timestamp back-dating (X)

  /// Worst-case response delay of one operation of class `cls`:
  /// self_add + holdback (OOP), mop_ack (MOP) or aop_respond (AOP).
  Tick bound(OpClass cls) const;

  /// The paper's choices for a system synchronized to skew eps, with
  /// trade-off parameter X in [0, d+eps-u].
  static AlgorithmDelays standard(const SystemTiming& timing, Tick x);

  /// Eager OOP variant: total OOP latency (self_add + holdback) squeezed to
  /// `latency`, keeping the other knobs standard.  Used to demonstrate
  /// Theorem C.1.
  static AlgorithmDelays eager_oop(const SystemTiming& timing, Tick x,
                                   Tick latency);

  /// Eager MOP variant: ack after `latency` instead of eps+X (Theorem D.1).
  static AlgorithmDelays eager_mop(const SystemTiming& timing, Tick x,
                                   Tick latency);

  /// Eager AOP variant: respond after `latency` instead of d+eps-X
  /// (Theorem E.1, together with eager_mop).
  static AlgorithmDelays eager_aop(const SystemTiming& timing, Tick x,
                                   Tick latency);

  /// Drift-compensated variant (Chapter VII future work): with clock rates
  /// within +-max_abs_ppm and a run no longer than `horizon` real ticks,
  /// the pairwise clock divergence grows to at most
  /// eps_eff = eps + 2 * horizon * max_abs_ppm / 1e6 (+1 rounding slack);
  /// the standard delays computed at eps_eff restore the safety argument
  /// for the bounded horizon, at proportionally higher latency.
  static AlgorithmDelays drift_compensated(const SystemTiming& timing, Tick x,
                                           std::int64_t max_abs_ppm,
                                           Tick horizon);
};

/// One of a replica's own operations that has not produced its response yet
/// -- what a mode switch must carry over to the degraded backend
/// (src/degrade/mode_switching_replica.h) so the client is still answered.
struct DrainedOwnOp {
  Timestamp ts{};
  /// The operation itself; nullopt only for a pure mutator whose broadcast
  /// copy already executed locally and whose early ack alone is still owed.
  std::optional<Operation> op;
  std::int64_t token = -1;
  /// True when the response is the unit ack (pure mutators), false when it
  /// is the operation's application result (OOPs and accessors).
  bool ack_only = false;
};

class ReplicaProcess : public Process {
 public:
  ReplicaProcess(std::shared_ptr<const ObjectModel> model, AlgorithmDelays delays);

  void on_invoke(std::int64_t token, const Operation& op) override;
  void on_message(ProcessId from, const MessagePayload& payload) override;
  void on_timer(TimerId id, const TimerTag& tag) override;

  /// Introspection for tests/benches.
  const ObjectState& local_copy() const { return *local_obj_; }
  std::size_t queued() const { return queue_.size(); }
  std::size_t executed_count() const { return executed_count_; }

  /// Timestamp of the last operation applied to the local copy; nullopt
  /// before the first execution.  Everything at or below this frontier is
  /// reflected in local_copy() -- the "executed prefix" a state-transfer
  /// snapshot hands to a rejoining replica.
  std::optional<Timestamp> executed_frontier() const {
    return executed_frontier_;
  }

  /// Pre-size the pending tables and the To_Execute pools for `n`
  /// concurrently pending operations (the workload's per-replica high-water
  /// bound).  Capacity-only: behavior is unchanged.
  void reserve_pending(std::size_t n) {
    awaiting_self_add_.reserve(n);
    awaiting_mop_ack_.reserve(n);
    awaiting_aop_.reserve(n);
    queue_.reserve(n);
  }

 protected:
  /// The clock that timestamps operations.  The base algorithm reads the
  /// process's local clock; the drift-managed subclass adds its running
  /// synchronization adjustment.
  virtual Tick algo_clock() const { return local_time(); }

  /// algo_clock(), forced strictly past the last issued stamp -- keeps
  /// per-process timestamps unique even if the adjusted clock steps
  /// backwards after a resynchronization.
  Tick next_stamp_clock();

  // --- crash-recovery support (core/recoverable_replica.h) ---

  /// Drop every piece of volatile algorithm state: local copy back to the
  /// initial value, To_Execute queue and all awaiting-timer maps emptied,
  /// counters zeroed.  What a true crash leaves behind.
  void reset_volatile_state();

  /// Install a transferred copy: `state` becomes the local object,
  /// `frontier`/`executed` describe the prefix it reflects.  Subsequent
  /// broadcasts with timestamps <= frontier must not be re-applied (the
  /// recoverable subclass filters them).
  void adopt_state(std::unique_ptr<ObjectState> state,
                   std::optional<Timestamp> frontier, std::size_t executed);

  /// Queue a replicated operation exactly as if its broadcast had just
  /// arrived (To_Execute add + holdback timer) -- state transfer re-feeds a
  /// snapshot's pending set and the rejoin buffer through this.
  void enqueue_replicated(const Timestamp& ts, const Operation& op);

  const ObjectModel& object_model() const { return *model_; }
  const AlgorithmDelays& algo_delays() const { return delays_; }
  const ToExecuteQueue& to_execute() const { return queue_; }

  /// Snapshot every own operation still awaiting its response, in timestamp
  /// order: broadcast ops awaiting self-add, own entries still in
  /// To_Execute, pure mutators awaiting their early ack, accessors awaiting
  /// their respond timer.  Read-only -- the caller (a degraded-mode switch)
  /// decides what to do with the tokens and typically follows up with
  /// reset_volatile_state().
  std::vector<DrainedOwnOp> drain_own_unresponded() const;

 private:
  enum TimerKind : int { kSelfAdd = 1, kExecute = 2, kMopAck = 3, kAopRespond = 4 };

  /// Apply queued operations in timestamp order up to `ts`
  /// (inclusive/exclusive per `inclusive`), responding for own OOPs.
  void execute_up_to(const Timestamp& ts, bool inclusive);

  std::shared_ptr<const ObjectModel> model_;
  AlgorithmDelays delays_;
  std::unique_ptr<ObjectState> local_obj_;
  ToExecuteQueue queue_;
  std::size_t executed_count_ = 0;
  Tick last_stamp_clock_ = kNoTime;
  std::optional<Timestamp> executed_frontier_;

  struct StoredOwnOp {
    Operation op;
    std::int64_t token = -1;
    bool respond_on_execute = false;  // true for OOP
  };
  /// Own broadcast operations awaiting their self-add timer, keyed by ts.
  /// Per-process timestamps are strictly increasing (next_stamp_clock), so
  /// every insert is an append and every timer-driven removal a head pop.
  FlatMap<Timestamp, StoredOwnOp> awaiting_self_add_;

  /// Pure-mutator tokens awaiting their ack timer, keyed by ts.
  FlatMap<Timestamp, std::int64_t> awaiting_mop_ack_;

  struct PendingAccessor {
    Operation op;
    std::int64_t token = -1;
  };
  /// Pure accessors awaiting their respond timer, keyed by (back-dated) ts.
  FlatMap<Timestamp, PendingAccessor> awaiting_aop_;
};

/// The broadcast payload <op, arg, ts> of Algorithm 1.
struct OpBroadcastPayload final : MessagePayload {
  Operation op;
  Timestamp ts;
  OpBroadcastPayload(Operation o, Timestamp t) : op(std::move(o)), ts(t) {}
};

}  // namespace linbound
