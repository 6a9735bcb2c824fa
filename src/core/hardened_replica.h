// Algorithm 1 hardened against message loss and duplication.
//
// The paper's replica algorithm assumes the message layer delivers every
// broadcast exactly once within [d-u, d].  This variant restores those
// guarantees over a faulty network (sim/fault_injection.h) with a classic
// reliable-link layer, in the spirit of Mostefaoui & Raynal's time-efficient
// crash-tolerant registers:
//
//   * every outgoing message carries a per-sender sequence number; the
//     receiver acks it and suppresses redundant deliveries (tolerates
//     duplication -- both injected duplicates and our own retransmissions);
//   * the sender retransmits unacked messages on a timer with bounded
//     exponential backoff -- first timeout 2(d + spike_margin) + 1,
//     doubling per attempt up to 8d -- giving up after max_attempts
//     (tolerates loss up to the configured attempt budget);
//   * the algorithm's waits are computed against the *effective* delivery
//     bound d_eff -- the worst case where every attempt but the last is
//     lost -- so the timestamp-order safety argument (Lemma C.8/C.9) holds
//     verbatim with d := d_eff.  Latency degrades by exactly that widening;
//     bench_fault_sweep quantifies it.
//
// What this deliberately does NOT guarantee: if all max_attempts copies of
// a message are lost (probability p^max_attempts per link under drop rate
// p), replicas can diverge -- the run is then attributed to a violated
// reliable-delivery assumption by the assumption monitor rather than
// silently miscounted.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/pending_tables.h"
#include "core/replica_algorithm.h"

namespace linbound {

/// Knobs of the reliable-link layer.  The waits are fixed formulas in the
/// system timing: first timeout 2(d + spike_margin) + 1 (a full round trip
/// must have failed), backoff x kBackoff per attempt, per-step cap 8d.
struct HardenedParams {
  /// Exponential backoff factor between attempts.
  static constexpr int kBackoff = 2;
  /// Root seed of the jitter streams; process `pid` draws from
  /// Rng(kJitterSeed).split(pid).
  static constexpr std::uint64_t kJitterSeed = 0x6a17'7e12'0b5eULL;

  /// Total transmissions per (message, destination), first send included.
  int max_attempts = 6;
  /// Extra one-way delay the link must absorb (set to the fault policy's
  /// max_delay_boost() when delays are widened).
  Tick spike_margin = 0;
  /// Deterministic jitter added to every *retransmission* wait: each backoff
  /// step is stretched by a uniform draw in [0, retrans_jitter] from this
  /// process's split RNG stream (kJitterSeed, split by process id), breaking
  /// the lockstep retransmission bursts a shared timeout produces.  The draw
  /// happens only when a retransmission actually fires -- the first-attempt
  /// timer is never jittered -- so fault-free runs consume no randomness and
  /// stay byte-identical to jitter-free ones.  0 disables jitter.
  Tick retrans_jitter = 0;

  /// First retransmission timeout, 2(d + spike_margin) + 1.
  Tick first_timeout_for(const SystemTiming& timing) const;
  /// Cap on a single backoff step, 8d.
  Tick step_cap_for(const SystemTiming& timing) const;

  /// Worst-case end-to-end delivery bound d_eff: all attempts but the last
  /// lost, the last one maximally delayed.
  Tick effective_d(const SystemTiming& timing) const;

  /// The widened partially synchronous parameters the hardened algorithm
  /// computes its waits from: d -> d_eff, minimum delay unchanged
  /// (u -> d_eff - (d - u)), eps unchanged.
  SystemTiming effective_timing(const SystemTiming& timing) const;

  bool valid() const {
    return max_attempts >= 1 && spike_margin >= 0 && retrans_jitter >= 0;
  }
};

/// The <seq, incarnation, inner> frame of the reliable link.  `incarnation`
/// distinguishes a sender's lifetimes across crash-recovery: a restarted
/// process starts a fresh sequence space, and receivers deduplicate per
/// (sender, incarnation) so a recycled seq 0 is not suppressed as a
/// duplicate of the previous life's seq 0.  Failure-free runs keep
/// incarnation 0 everywhere and behave exactly as before.
struct LinkDataPayload final : TaggedPayload<LinkDataPayload> {
  std::int64_t seq = 0;
  Tick incarnation = 0;
  const MessagePayload* inner = nullptr;  ///< arena-owned, outlives the frame
  LinkDataPayload(std::int64_t s, const MessagePayload* in, Tick inc = 0)
      : seq(s), incarnation(inc), inner(in) {}
};

/// Receiver's acknowledgment of LinkDataPayload <seq, incarnation>.  The
/// echoed incarnation lets a restarted sender ignore acks addressed to its
/// previous life (whose sequence numbers it is reusing).
struct LinkAckPayload final : TaggedPayload<LinkAckPayload> {
  std::int64_t seq = 0;
  Tick incarnation = 0;
  explicit LinkAckPayload(std::int64_t s, Tick inc = 0)
      : seq(s), incarnation(inc) {}
};

class HardenedReplicaProcess : public ReplicaProcess {
 public:
  /// `delays` must be computed against params.effective_timing(timing) --
  /// ReplicaSystem does this when SystemOptions::hardened is set.
  HardenedReplicaProcess(std::shared_ptr<const ObjectModel> model,
                         AlgorithmDelays delays, HardenedParams params);

  void on_message(ProcessId from, const MessagePayload& payload) override;
  void on_timer(TimerId id, const TimerTag& tag) override;

  /// Link-layer introspection for tests and the fault sweep.
  std::int64_t retransmissions() const { return retransmissions_; }
  std::int64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  std::int64_t link_give_ups() const { return link_give_ups_; }

 protected:
  /// Every algorithm-level send goes out framed and retransmitted.
  void send(ProcessId to, const MessagePayload* payload) override;

  /// Hand a deduplicated application payload up the stack.  The default
  /// runs Algorithm 1's handler; the recoverable subclass interposes here
  /// to buffer broadcasts and route its join protocol while rejoining.
  virtual void deliver_app(ProcessId from, const MessagePayload& payload) {
    ReplicaProcess::on_message(from, payload);
  }

  /// Restart the link layer for a new life: forget unacked sends and the
  /// per-sender dedup history (all volatile), restart sequence numbers, and
  /// stamp future frames with `new_incarnation` (must exceed every previous
  /// one; recoverable replicas use the local clock at recovery, which is
  /// monotonic across lifetimes without stable storage).
  void reset_link_state(Tick new_incarnation);

  Tick link_incarnation() const { return my_incarnation_; }
  const HardenedParams& link_params() const { return params_; }

 private:
  /// Link timer kind; disjoint from ReplicaProcess's private kinds (1..4).
  static constexpr int kLinkRetransmit = 100;

  struct PendingSend {
    const LinkDataPayload* frame = nullptr;  ///< arena-owned
    ProcessId to = kNoProcess;
    int attempts = 1;
    Tick next_timeout = 0;
  };

  /// pending_sends_ key for the (destination, per-destination seq) pair.
  /// seq stays far below 2^48 (every send costs at least one simulator
  /// event, and event budgets are orders of magnitude smaller).
  static std::int64_t link_key(ProcessId to, std::int64_t seq) {
    return (static_cast<std::int64_t>(to) << 48) | seq;
  }

  HardenedParams params_;
  /// Next frame sequence number, PER DESTINATION (indexed by pid, grown on
  /// demand).  Per-link numbering keeps each receiver's dedup SeqSet
  /// gap-free -- its frontier advances and the sparse overflow stays empty,
  /// so dedup memory is O(1) per link instead of growing with every send
  /// the receiver never saw (a global counter leaves permanent holes in
  /// every link's sequence space).
  std::vector<std::int64_t> next_link_seq_;
  /// This process's current life; stamped into every frame.
  Tick my_incarnation_ = 0;
  /// Unacked sends, by link_key.  Per-destination sequence numbers count up
  /// and acks overwhelmingly arrive in order, so the flat table's
  /// append/head-pop fast path applies (core/pending_tables.h).
  FlatMap<std::int64_t, PendingSend> pending_sends_;
  /// Sequence numbers already delivered up the stack, per sender and per
  /// sender incarnation (a restarted sender reuses sequence numbers).
  LinkDedup delivered_;

  std::int64_t retransmissions_ = 0;
  std::int64_t duplicates_suppressed_ = 0;
  std::int64_t link_give_ups_ = 0;

  /// Per-process jitter stream, created on the first retransmission (needs
  /// id(), which is unknown at construction; and a run with no
  /// retransmissions must not draw from it at all).
  std::optional<Rng> jitter_rng_;
};

}  // namespace linbound
