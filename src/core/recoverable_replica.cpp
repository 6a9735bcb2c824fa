#include "core/recoverable_replica.h"

#include <algorithm>

namespace linbound {

Tick RecoverableParams::join_retry_for(const SystemTiming& timing) const {
  return 2 * link.effective_d(timing) + 1;
}

Tick RecoverableParams::catchup_for(const SystemTiming& timing) const {
  return link.effective_d(timing) + timing.eps;
}

RecoverableReplicaProcess::RecoverableReplicaProcess(
    std::shared_ptr<const ObjectModel> model, AlgorithmDelays delays,
    RecoverableParams params)
    : HardenedReplicaProcess(std::move(model), delays, params.link),
      params_(params) {}

void RecoverableReplicaProcess::on_recover() {
  // A crash wiped everything volatile: algorithm state, link state, and any
  // rejoin bookkeeping from a previous life.
  reset_volatile_state();
  reset_link_state(std::max<Tick>(link_incarnation() + 1, local_time()));
  joined_ = false;
  serving_ = false;
  recovered_once_ = true;
  ++recoveries_;
  buffered_.clear();
  deferred_.clear();
  snapshot_frontier_.reset();
  seen_ts_.clear();
  last_rejoin_complete_ = kNoTime;
  send_join_request();
}

void RecoverableReplicaProcess::send_join_request() {
  broadcast(make_msg<JoinRequestPayload>(link_incarnation()));
  join_timer_ =
      set_timer(params_.join_retry_for(timing()), TimerTag{kJoinRetry, {}});
}

const JoinSnapshotPayload* RecoverableReplicaProcess::make_snapshot(
    Tick incarnation) const {
  JoinSnapshotPayload* snap = make_msg<JoinSnapshotPayload>();
  snap->state = local_copy().snapshot();
  snap->frontier = executed_frontier();
  snap->executed = executed_count();
  to_execute().for_each([&](const Timestamp& ts, const Operation& op,
                            std::int64_t /*own_token*/) {
    snap->pending.emplace_back(ts, op);
  });
  std::sort(snap->pending.begin(), snap->pending.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  snap->incarnation = incarnation;
  return snap;
}

void RecoverableReplicaProcess::feed_if_new(const Timestamp& ts,
                                            const Operation& op) {
  if (snapshot_frontier_ && ts <= *snapshot_frontier_) {
    ++rejoin_dedup_dropped_;
    return;
  }
  if (!seen_ts_.insert(ts)) {
    ++rejoin_dedup_dropped_;
    return;
  }
  enqueue_replicated(ts, op);
}

void RecoverableReplicaProcess::adopt_snapshot(const JoinSnapshotPayload& snap) {
  adopt_state(snap.state.to_state(), snap.frontier, snap.executed);
  snapshot_frontier_ = snap.frontier;
  joined_ = true;
  if (join_timer_ >= 0) {
    cancel_timer(join_timer_);
    join_timer_ = -1;
  }
  // Re-feed everything the adopted copy does not already reflect: first the
  // peer's pending set, then the broadcasts buffered while we waited.  Both
  // go through the normal To_Execute/holdback path, so execution order and
  // timing safety are Algorithm 1's own.
  for (const auto& [ts, op] : snap.pending) feed_if_new(ts, op);
  for (const auto& [ts, op] : buffered_) feed_if_new(ts, op);
  buffered_.clear();
  set_timer(params_.catchup_for(timing()), TimerTag{kCatchUp, {}});
}

void RecoverableReplicaProcess::on_invoke(std::int64_t token,
                                          const Operation& op) {
  if (!serving_) {
    // Mid-rejoin: accept the invocation but answer only once caught up.
    deferred_.emplace_back(token, op);
    return;
  }
  ReplicaProcess::on_invoke(token, op);
}

void RecoverableReplicaProcess::deliver_app(ProcessId from,
                                            const MessagePayload& payload) {
  if (const auto* join = payload_as<JoinRequestPayload>(payload)) {
    // Serve state to a rejoiner -- but only from a joined copy; a replica
    // that is itself mid-rejoin has nothing trustworthy to hand out.
    if (joined_) {
      send(from, make_snapshot(join->incarnation));
      ++snapshots_served_;
    }
    return;
  }
  if (const auto* snap = payload_as<JoinSnapshotPayload>(payload)) {
    // Adopt the first snapshot for *this* incarnation; later ones (other
    // peers answering, or retransmissions) are redundant.
    if (!joined_ && snap->incarnation == link_incarnation()) {
      adopt_snapshot(*snap);
    }
    return;
  }
  if (const auto* op = payload_as<OpBroadcastPayload>(payload)) {
    if (!joined_) {
      // No state to order against yet; hold it for adoption time.
      buffered_.emplace_back(op->ts, op->op);
      return;
    }
    if (recovered_once_) {
      // Post-rejoin deliveries can duplicate what the snapshot or the
      // buffer already supplied (e.g. a peer retransmitting across our
      // downtime under its old incarnation).
      feed_if_new(op->ts, op->op);
      return;
    }
    HardenedReplicaProcess::deliver_app(from, payload);
    return;
  }
  HardenedReplicaProcess::deliver_app(from, payload);
}

void RecoverableReplicaProcess::on_timer(TimerId id, const TimerTag& tag) {
  switch (tag.kind) {
    case kJoinRetry:
      // Unanswered (every peer down or our request lost past the link's
      // attempt budget): ask again, forever -- availability returns as soon
      // as any peer does.
      if (!joined_) send_join_request();
      return;
    case kCatchUp: {
      serving_ = true;
      last_rejoin_complete_ = local_time();
      auto deferred = std::move(deferred_);
      deferred_.clear();
      for (const auto& [token, op] : deferred) {
        ReplicaProcess::on_invoke(token, op);
      }
      return;
    }
    default:
      HardenedReplicaProcess::on_timer(id, tag);
  }
}

}  // namespace linbound
