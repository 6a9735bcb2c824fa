// Crash-recovery on top of the hardened replica: rejoin + state transfer.
//
// The paper's model is failure-free; the hardened variant survives message
// faults but a crashed replica stays dead.  This variant lets it come back.
// A recovered process has lost all volatile state (its object copy, the
// To_Execute queue, link-layer history -- everything), so it runs a rejoin
// protocol before answering operations again:
//
//   1. On recovery it picks a fresh link incarnation (the local clock at
//      recovery: monotonically larger than any previous life's, with no
//      stable storage) and broadcasts JoinRequest, retrying every round
//      trip over the effective link (2 * d_eff + 1) until answered.
//   2. Every joined peer replies with a JoinSnapshot: a clone of its object
//      copy, the timestamp frontier that copy reflects (its executed
//      prefix), and its pending To_Execute entries.  Meanwhile the rejoiner
//      buffers live OpBroadcasts instead of queueing them (it has no state
//      to order them against yet).
//   3. The rejoiner adopts the first snapshot matching its incarnation,
//      re-feeds the snapshot's pending set and its own buffer through the
//      normal To_Execute/holdback path (dropping everything at or below the
//      snapshot frontier, deduplicating across the two sources), and then
//      waits one catch-up window,
//
//          catchup = d_eff + eps,
//
//      before serving invocations: the adopted snapshot is at most d_eff
//      stale (any operation it misses was broadcast less than d_eff before
//      the snapshot was sent, and every copy addressed to us is either
//      buffered already or arrives within d_eff of our recovery -- the
//      sender's link layer keeps retransmitting across our downtime), and
//      eps covers the stamping skew.  After the window the local copy is as
//      caught-up as any replica's, so responses keep Algorithm 1's
//      correctness argument; client operations invoked during the window
//      are deferred, not refused.
//
// Survivors are untouched: they answer a JoinRequest with one message and
// otherwise run the standard algorithm, so their d_eff+eps / eps+X response
// bounds still hold (bench_churn_sweep measures exactly this).
//
// Limits, stated rather than hidden: downtime longer than the link layer's
// retransmission budget can lose an operation's broadcast to the rejoiner
// forever if it is also past every snapshot's pending set; such runs are
// attributed by the assumption monitor (kRecovering / kReliableDelivery),
// not silently accepted.  With max_down > 1 simultaneous crashes, a
// snapshot may itself come from a replica that is missing an operation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/hardened_replica.h"
#include "core/pending_tables.h"
#include "spec/snapshot.h"

namespace linbound {

/// Knobs of the recovery layer: the reliable link's.  The rejoin waits are
/// fixed formulas over the effective link.
struct RecoverableParams {
  HardenedParams link;

  /// JoinRequest retry period: a round trip over the effective link,
  /// 2 * d_eff + 1.
  Tick join_retry_for(const SystemTiming& timing) const;
  /// Catch-up window after adopting a snapshot, d_eff + eps.
  Tick catchup_for(const SystemTiming& timing) const;
};

/// Rejoiner -> everyone: "I am back (as incarnation `incarnation`), send me
/// your state."
struct JoinRequestPayload final : TaggedPayload<JoinRequestPayload> {
  Tick incarnation = 0;
  explicit JoinRequestPayload(Tick inc) : incarnation(inc) {}
};

/// Joined peer -> rejoiner: state transfer.  `state` is a copy-on-write
/// snapshot of the peer's object copy (spec/snapshot.h; taking it costs one
/// clone, sharing it costs nothing), `frontier`/`executed` the prefix it reflects,
/// `pending` the peer's queued-but-unexecuted entries (timestamp order).
/// `incarnation` echoes the request, so a stale snapshot from a previous
/// join attempt cannot be adopted by a later life.
struct JoinSnapshotPayload final : TaggedPayload<JoinSnapshotPayload> {
  Snapshot state;
  std::optional<Timestamp> frontier;
  std::size_t executed = 0;
  std::vector<std::pair<Timestamp, Operation>> pending;
  Tick incarnation = 0;
};

class RecoverableReplicaProcess final : public HardenedReplicaProcess {
 public:
  /// `delays` must be computed against params.link.effective_timing --
  /// ReplicaSystem does this when SystemOptions::recoverable is set.
  RecoverableReplicaProcess(std::shared_ptr<const ObjectModel> model,
                            AlgorithmDelays delays, RecoverableParams params);

  void on_recover() override;
  void on_invoke(std::int64_t token, const Operation& op) override;
  void on_timer(TimerId id, const TimerTag& tag) override;

  /// Recovery introspection for tests and the churn sweep.
  bool joined() const { return joined_; }
  bool serving() const { return serving_; }
  int recoveries() const { return recoveries_; }
  std::int64_t snapshots_served() const { return snapshots_served_; }
  std::int64_t rejoin_dedup_dropped() const { return rejoin_dedup_dropped_; }
  /// Local time when the last rejoin reached serving state; kNoTime if
  /// never recovered (or still catching up).
  Tick last_rejoin_complete() const { return last_rejoin_complete_; }

 protected:
  void deliver_app(ProcessId from, const MessagePayload& payload) override;

 private:
  /// Recovery timer kinds; disjoint from ReplicaProcess's (1..4) and the
  /// link layer's (100).
  static constexpr int kJoinRetry = 200;
  static constexpr int kCatchUp = 201;

  void send_join_request();
  void adopt_snapshot(const JoinSnapshotPayload& snap);
  const JoinSnapshotPayload* make_snapshot(Tick incarnation) const;
  /// Queue a rejoin-sourced op unless the snapshot frontier covers it or it
  /// was already queued from the other source.
  void feed_if_new(const Timestamp& ts, const Operation& op);

  RecoverableParams params_;
  /// False between on_recover and snapshot adoption.
  bool joined_ = true;
  /// False between on_recover and the end of the catch-up window.
  bool serving_ = true;
  bool recovered_once_ = false;
  int recoveries_ = 0;

  /// Live OpBroadcasts received while not joined.
  std::vector<std::pair<Timestamp, Operation>> buffered_;
  /// Operations invoked while not serving, replayed when the catch-up
  /// window closes (at most one under the one-pending-op rule; a vector
  /// keeps the invariant visible).
  std::vector<std::pair<std::int64_t, Operation>> deferred_;
  /// Frontier of the adopted snapshot: broadcasts at or below it are
  /// already reflected in the adopted state and must not re-apply.
  std::optional<Timestamp> snapshot_frontier_;
  /// Timestamps queued since the last recovery (dedup across the snapshot
  /// pending set, the rejoin buffer, and post-join retransmissions).
  FlatSet<Timestamp> seen_ts_;
  TimerId join_timer_ = -1;

  std::int64_t snapshots_served_ = 0;
  std::int64_t rejoin_dedup_dropped_ = 0;
  Tick last_rejoin_complete_ = kNoTime;
};

}  // namespace linbound
