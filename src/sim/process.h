// Process base class: the paper's deterministic state machine.
//
// A process reacts to three kinds of input events -- operation invocations,
// message receipts, and timers going off (Chapter III.B.1) -- and observes
// time only through its local clock.  Steps take zero time; everything a
// handler does (sends, timer updates, responses) happens at one instant,
// exactly as the model's transition function prescribes.
#pragma once

#include <cstdint>
#include <utility>

#include "common/time.h"
#include "common/timestamp.h"
#include "common/value.h"
#include "sim/arena.h"
#include "sim/message.h"
#include "spec/operation.h"

namespace linbound {

class Simulator;

using TimerId = std::int64_t;

/// Payload attached to a timer; Algorithm 1 keys timers by an action kind
/// and the timestamp of the operation they belong to (the paper's
/// set_timer(counter, <op,arg,ts>, action)).
struct TimerTag {
  int kind = 0;
  Timestamp ts{};
};

class Process {
 public:
  virtual ~Process() = default;

  ProcessId id() const { return id_; }

  /// Called once before any other handler, at the start of the run.
  virtual void on_start() {}

  /// Called when Simulator::recover_at restarts this process after a crash
  /// (crash-recovery model; Chapter VII future work).  A restarted process
  /// has lost its volatile state: timers armed before the crash never fire
  /// and the one-pending-operation slot is cleared by the simulator.
  /// Implementations that support rejoining (core/recoverable_replica.h)
  /// override this to reset their state and run a catch-up protocol; the
  /// default keeps the pre-crash member state verbatim, which models a
  /// pause-and-resume rather than a true crash -- fine for probes, wrong
  /// for replicas (their copy would silently be stale).
  virtual void on_recover() {}

  /// A message from another process arrived.
  virtual void on_message(ProcessId from, const MessagePayload& payload) = 0;

  /// A timer armed by this process expired.
  virtual void on_timer(TimerId id, const TimerTag& tag) {
    (void)id;
    (void)tag;
  }

  /// The application layer invoked an operation on this process.  The
  /// implementation must eventually call respond(token, ret) exactly once.
  virtual void on_invoke(std::int64_t token, const Operation& op) = 0;

 protected:
  /// Local clock reading: real time + this process's offset.
  Tick local_time() const;

  /// Number of processes in the system and the system timing parameters.
  int process_count() const;
  const SystemTiming& timing() const;

  /// The run's payload arena; hosts hand it to the payload builders they
  /// embed (QuorumHost::quorum_arena), so every payload of a run lives in it.
  PayloadArena& arena() const;

  /// Construct a payload in the run's arena (sim/arena.h): the allocation
  /// is a pointer bump, the arena owns the object for the whole run, and
  /// the returned pointer can be sent any number of times.  Payloads are
  /// logically immutable once sent; the mutable pointer only allows filling
  /// fields between construction and the first send.
  template <typename T, typename... Args>
  T* make_msg(Args&&... args) const {
    return arena().make<T>(std::forward<Args>(args)...);
  }

  /// Send `payload` to process `to` (delivery per the run's delay policy).
  /// The payload must live in the run's arena (make_msg).  Virtual so a
  /// link layer (core/hardened_replica.h) can interpose -- e.g. wrap
  /// payloads with sequence numbers and arm retransmissions; raw_send
  /// below always hits the wire directly.
  virtual void send(ProcessId to, const MessagePayload* payload);

  /// Send to every process except this one ("send to all others"); goes
  /// through the virtual send() per recipient.
  void broadcast(const MessagePayload* payload);

  /// The unadorned message-layer send (bypasses any send() override).
  void raw_send(ProcessId to, const MessagePayload* payload);

  /// Arm a timer that fires after `local_delta` units of local-clock time
  /// (== real time, clocks have no drift).  Returns its id.
  TimerId set_timer(Tick local_delta, TimerTag tag);

  /// Disarm a previously set timer; no-op if it already fired.
  void cancel_timer(TimerId id);

  /// Complete the operation identified by `token` with return value `ret`.
  void respond(std::int64_t token, Value ret);

  /// Abandon the pending operation identified by `token` (graceful
  /// degradation: e.g. a client timing out on a dead coordinator).  The
  /// operation is marked given-up in the trace and the process may accept
  /// new invocations again; it must not respond for the token afterwards.
  void give_up(std::int64_t token);

 private:
  friend class Simulator;

  Simulator* sim_ = nullptr;
  ProcessId id_ = kNoProcess;
};

}  // namespace linbound
