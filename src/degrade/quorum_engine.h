// Crash-tolerant asynchronous agreement: a leaderless, per-slot
// single-decree Paxos log -- the fallback backend the mode-switching
// replica (mode_switching_replica.h) drops to when the synchrony supervisor
// observes the [d-u, d]/eps envelope broken.
//
// Why Paxos and not a quorum register: the paper's objects are *arbitrary*
// data types.  ABD-style register emulation is safe only for reads/writes;
// for ordered operations (queues, RMW) two concurrent dequeues through
// partially overlapping quorum views can both return the same element, so
// the degraded backend must agree on a total order.  Per-slot Paxos gives
// exactly that with no leader to lose: every replica may propose, collisions
// are resolved per slot, and safety needs no timing assumptions at all --
// only a majority of replicas up.  Timing only affects liveness, which is
// the right trade for a mode entered precisely because timing has failed.
//
// The engine is deliberately not a Process: the mode-switching replica is
// already one, and one object must be able to host several engines (one per
// degraded era) concurrently for laggards catching up.  All I/O goes
// through the small QuorumHost interface; payloads live in the engine's own
// arena so hosts never marshal.
//
// Crash model (documented, standard): acceptor state and the chosen log are
// treated as *stable storage* -- the simulator's crash keeps member state
// and only kills timers, which matches Paxos's persistence assumption.
// A recovering host calls reawaken() to re-arm the volatile timers and
// broadcast a catch-up request.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "common/timestamp.h"
#include "sim/arena.h"
#include "sim/message.h"
#include "spec/operation.h"

namespace linbound {

/// Classic Paxos ballot: totally ordered, proposer-unique.
struct Ballot {
  std::int64_t round = 0;
  ProcessId pid = kNoProcess;

  friend auto operator<=>(const Ballot&, const Ballot&) = default;
};

/// What a log slot can decide.
enum class QuorumValueKind {
  kNoop,  ///< gap filler: no effect, unblocks in-order delivery
  kOp,    ///< one client operation, identified by (origin, op_id)
  kBase,  ///< era base: the drained synchronous history a downgrade agrees on
  kSeal,  ///< era seal: everything after it in this era's log is void
};

/// One entry of a kBase value: a synchronous-era operation at its Algorithm 1
/// timestamp (replayed in ts order from the era's start state).
struct BaseEntry {
  Timestamp ts{};
  Operation op;
};

struct QuorumValue {
  QuorumValueKind kind = QuorumValueKind::kNoop;
  ProcessId origin = kNoProcess;
  std::int64_t op_id = -1;      ///< kOp: unique per origin
  Operation op;                 ///< kOp payload
  std::vector<BaseEntry> base;  ///< kBase payload, sorted by ts
};

/// Identity (not content) equality: is `a` the same *proposal* as `b`?
/// kOp compares (origin, op_id); kBase/kSeal compare (kind, origin); kNoop
/// is never the same proposal as anything (fillers are anonymous).
bool same_proposal(const QuorumValue& a, const QuorumValue& b);

// --- wire payloads (engine-internal; hosts may wrap them opaquely) ---

struct QPreparePayload final : MessagePayload {
  std::int64_t slot = 0;
  Ballot ballot{};
  QPreparePayload(std::int64_t s, Ballot b) : slot(s), ballot(b) {}
};

struct QPromisePayload final : MessagePayload {
  std::int64_t slot = 0;
  Ballot ballot{};
  bool has_accepted = false;
  Ballot accepted_ballot{};
  QuorumValue accepted_value;
  QPromisePayload(std::int64_t s, Ballot b) : slot(s), ballot(b) {}
};

struct QAcceptPayload final : MessagePayload {
  std::int64_t slot = 0;
  Ballot ballot{};
  QuorumValue value;
  QAcceptPayload(std::int64_t s, Ballot b, QuorumValue v)
      : slot(s), ballot(b), value(std::move(v)) {}
};

struct QAcceptedPayload final : MessagePayload {
  std::int64_t slot = 0;
  Ballot ballot{};
  QAcceptedPayload(std::int64_t s, Ballot b) : slot(s), ballot(b) {}
};

struct QNackPayload final : MessagePayload {
  std::int64_t slot = 0;
  Ballot promised{};
  QNackPayload(std::int64_t s, Ballot p) : slot(s), promised(p) {}
};

struct QChosenPayload final : MessagePayload {
  std::int64_t slot = 0;
  QuorumValue value;
  QChosenPayload(std::int64_t s, QuorumValue v) : slot(s), value(std::move(v)) {}
};

struct QCatchupReqPayload final : MessagePayload {
  std::int64_t from_slot = 0;
  explicit QCatchupReqPayload(std::int64_t s) : from_slot(s) {}
};

struct QCatchupReplyPayload final : MessagePayload {
  std::vector<std::int64_t> slots;
  std::vector<QuorumValue> values;
};

/// The engine's window to the world.  `tag` is the opaque value the host
/// passed at construction (the mode-switching replica uses the degraded
/// era), echoed on every upcall so one host can demultiplex several engines.
class QuorumHost {
 public:
  virtual ~QuorumHost() = default;

  /// Ship an engine payload to peer `to` (never the engine's own process).
  virtual void quorum_send(std::int64_t tag, ProcessId to,
                           const MessagePayload* payload) = 0;

  /// Arm a timer that calls QuorumEngine::on_timer(cookie) after `delta`
  /// local-clock ticks.  Timers are volatile (lost on crash) and need no
  /// cancellation -- the engine ignores stale cookies.
  virtual void quorum_set_timer(std::int64_t tag, Tick delta,
                                std::int64_t cookie) = 0;

  /// Slot `slot` decided `value`, and every smaller slot has already been
  /// delivered (in-order, exactly once per slot).
  virtual void quorum_committed(std::int64_t tag, std::int64_t slot,
                                const QuorumValue& value) = 0;
};

/// Root seed of the engines' retry-jitter streams; each engine splits it by
/// process id and tag.
constexpr std::uint64_t kQuorumSeed = 0xdeb'ade'5eedULL;

/// The engine's waits are fixed formulas in d:
///   * proposal retry: first 2d+1 (a prepare/promise round trip under
///     healthy timing -- under broken timing the backoff takes over),
///     doubled per retry up to 8d, each wait stretched by a jitter draw in
///     [0, d] from the engine's split RNG stream (dueling proposers must not
///     re-prepare in lockstep or they livelock);
///   * gap fill: a delivery gap (a chosen slot above an unchosen one) may
///     stand 4d before the engine proposes a kNoop to resolve it; this also
///     recovers slots whose QChosen notification was lost.
class QuorumEngine {
 public:
  QuorumEngine(QuorumHost& host, std::int64_t tag, ProcessId self, int n,
               const SystemTiming& timing);

  /// Feed a received payload; returns false if it was not an engine message
  /// (the host should then try its other handlers).
  bool on_message(ProcessId from, const MessagePayload& payload);

  /// Deliver a timer armed through QuorumHost::quorum_set_timer.
  void on_timer(std::int64_t cookie);

  /// Queue `value` for agreement.  The engine drives one own proposal at a
  /// time and keeps proposing (with ballot escalation and jittered backoff)
  /// until the value is chosen in some slot or abandon_kind() removes it.
  void propose(QuorumValue value);

  /// Drop every own pending/driving proposal of `kind` -- called by the
  /// host when a competing kBase/kSeal committed, making ours redundant.
  /// Abandoning mid-Paxos is safe: a half-accepted slot is resolved by gap
  /// fill, and the value is idempotent at the host (dedup on delivery).
  void abandon_kind(QuorumValueKind kind);

  /// After a crash: re-arm the (volatile) proposal and gap timers and
  /// broadcast a catch-up request for slots decided while down.
  void reawaken();

  // --- introspection (tests / benches) ---
  std::int64_t delivered_count() const { return apply_next_; }
  std::int64_t chosen_count() const { return static_cast<std::int64_t>(chosen_.size()); }
  bool idle() const { return !driving_ && backlog_.empty(); }
  std::int64_t proposal_retries() const { return retries_; }
  std::int64_t noop_fills() const { return noop_fills_; }

 private:
  // Timer cookies: positive = proposal retry (the arming sequence number),
  // kGapCookie = gap-fill probe.
  static constexpr std::int64_t kGapCookie = -1;

  struct AcceptorSlot {
    Ballot promised{};
    std::optional<Ballot> accepted_ballot;
    QuorumValue accepted_value;
  };

  /// The one own proposal currently being driven through Paxos.
  struct Driving {
    QuorumValue value;
    bool noop_fill = false;  ///< gap filler: done when the slot decides at all
    std::int64_t slot = -1;
    Ballot ballot{};
    bool phase2 = false;
    QuorumValue phase2_value;  ///< own value, or a recovered accepted value
    std::set<ProcessId> promises;
    std::optional<Ballot> best_accepted_ballot;
    QuorumValue best_accepted_value;
    std::set<ProcessId> accepteds;
  };

  int majority() const { return n_ / 2 + 1; }
  Tick retry_initial() const { return 2 * timing_.d + 1; }

  void send_others(const MessagePayload* payload);
  std::int64_t lowest_unchosen() const;
  bool has_gap() const;

  /// (Re)start phase 1 of the driving proposal at `slot` with a fresh,
  /// higher ballot; arms the retry timer.
  void start_attempt(std::int64_t slot);
  void arm_retry();
  void arm_gap_timer();

  // Acceptor side (self messages handled inline, peers via payloads).
  void accept_prepare(ProcessId from, std::int64_t slot, const Ballot& b);
  void accept_accept(ProcessId from, std::int64_t slot, const Ballot& b,
                     const QuorumValue& v);

  // Proposer side.
  void collect_promise(ProcessId from, const QPromisePayload& p);
  void collect_promise_parts(ProcessId from, std::int64_t slot,
                             const Ballot& b, bool has_accepted,
                             const Ballot& acc_b, const QuorumValue& acc_v);
  void collect_accepted(ProcessId from, std::int64_t slot, const Ballot& b);

  void on_chosen(std::int64_t slot, const QuorumValue& value);
  void deliver_committed();
  void maybe_start_next();

  QuorumHost& host_;
  std::int64_t tag_;
  ProcessId self_;
  int n_;
  SystemTiming timing_;
  /// Engine-owned payload storage: the engine is not a Process and cannot
  /// reach the run arena; it lives as long as its replica, which outlives
  /// every in-flight delivery of its payloads.
  PayloadArena arena_;
  Rng rng_;

  std::map<std::int64_t, AcceptorSlot> acceptors_;  ///< stable storage
  std::map<std::int64_t, QuorumValue> chosen_;      ///< stable storage
  std::int64_t apply_next_ = 0;  ///< next slot to deliver to the host
  std::int64_t round_ = 0;       ///< monotonic ballot-round counter

  std::optional<Driving> driving_;
  std::deque<QuorumValue> backlog_;
  std::int64_t retry_seq_ = 0;  ///< stale retry timers carry an older value
  Tick retry_wait_ = 0;
  bool gap_timer_armed_ = false;

  std::int64_t retries_ = 0;
  std::int64_t noop_fills_ = 0;
};

}  // namespace linbound
