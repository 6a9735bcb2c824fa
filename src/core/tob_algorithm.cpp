#include "core/tob_algorithm.h"

namespace linbound {

TobProcess::TobProcess(std::shared_ptr<const ObjectModel> model,
                       ProcessId sequencer)
    : model_(std::move(model)),
      sequencer_(sequencer),
      obj_(model_->initial_state()) {}

void TobProcess::on_invoke(std::int64_t token, const Operation& op) {
  if (is_sequencer()) {
    sequence(op, token, id());
    return;
  }
  send(sequencer_, make_msg<TobSubmitPayload>(op, token, id()));
}

void TobProcess::on_message(ProcessId /*from*/, const MessagePayload& payload) {
  if (const auto* submit = payload_as<TobSubmitPayload>(payload)) {
    sequence(submit->op, submit->token, submit->origin);
    return;
  }
  if (const auto* deliver_msg = payload_as<TobDeliverPayload>(payload)) {
    deliver(*deliver_msg);
    return;
  }
}

void TobProcess::sequence(const Operation& op, std::int64_t token,
                          ProcessId origin) {
  const std::int64_t seq = next_seq_to_assign_++;
  broadcast(make_msg<TobDeliverPayload>(op, token, origin, seq));
  // The sequencer delivers to itself immediately (it defines the order).
  buffer_.insert_or_assign(seq, Buffered{op, token, origin});
  apply_in_order();
}

void TobProcess::deliver(const TobDeliverPayload& msg) {
  buffer_.insert_or_assign(msg.seq, Buffered{msg.op, msg.token, msg.origin});
  apply_in_order();
}

void TobProcess::apply_in_order() {
  while (true) {
    const Buffered* entry = buffer_.find(next_seq_to_apply_);
    if (entry == nullptr) return;
    const Value ret = obj_->apply(entry->op);
    if (entry->origin == id()) respond(entry->token, ret);
    buffer_.erase(next_seq_to_apply_);
    ++next_seq_to_apply_;
  }
}

}  // namespace linbound
