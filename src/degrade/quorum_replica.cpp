#include "degrade/quorum_replica.h"

namespace linbound {

QuorumReplicaProcess::QuorumReplicaProcess(
    std::shared_ptr<const ObjectModel> model)
    : model_(std::move(model)), obj_(model_->initial_state()) {}

void QuorumReplicaProcess::on_start() {
  engine_ = std::make_unique<QuorumEngine>(*this, /*tag=*/0, id(),
                                           process_count(), timing());
}

void QuorumReplicaProcess::on_invoke(std::int64_t token, const Operation& op) {
  QuorumValue value;
  value.kind = QuorumValueKind::kOp;
  value.origin = id();
  value.op_id = next_op_id_++;
  value.op = op;
  pending_tokens_[value.op_id] = token;
  engine_->propose(std::move(value));
}

void QuorumReplicaProcess::on_message(ProcessId from,
                                      const MessagePayload& payload) {
  engine_->on_message(from, payload);
}

void QuorumReplicaProcess::on_timer(TimerId /*id*/, const TimerTag& tag) {
  if (tag.kind != kQuorumTimer) return;
  engine_->on_timer(tag.ts.clock_time);
}

void QuorumReplicaProcess::on_recover() {
  // Member state is the stable storage (see quorum_engine.h); only the
  // timers died.  Catch up on slots decided while down -- the commit that
  // answers the operation the crash cut may be among them.
  engine_->reawaken();
}

void QuorumReplicaProcess::quorum_send(std::int64_t /*tag*/, ProcessId to,
                                       const MessagePayload* payload) {
  send(to, payload);
}

void QuorumReplicaProcess::quorum_set_timer(std::int64_t /*tag*/, Tick delta,
                                            std::int64_t cookie) {
  set_timer(delta, TimerTag{kQuorumTimer, Timestamp{cookie, id()}});
}

void QuorumReplicaProcess::quorum_committed(std::int64_t /*tag*/,
                                            std::int64_t /*slot*/,
                                            const QuorumValue& value) {
  if (value.kind != QuorumValueKind::kOp) return;  // noop fillers
  const Value ret = obj_->apply(value.op);
  if (value.origin != id()) return;
  auto it = pending_tokens_.find(value.op_id);
  if (it == pending_tokens_.end()) return;
  const std::int64_t token = it->second;
  pending_tokens_.erase(it);
  respond(token, ret);
}

}  // namespace linbound
