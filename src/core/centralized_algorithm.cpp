#include "core/centralized_algorithm.h"

namespace linbound {

CentralizedProcess::CentralizedProcess(std::shared_ptr<const ObjectModel> model,
                                       ProcessId coordinator, Tick give_up_after)
    : model_(std::move(model)),
      coordinator_(coordinator),
      give_up_after_(give_up_after),
      obj_(model_->initial_state()) {}

void CentralizedProcess::on_invoke(std::int64_t token, const Operation& op) {
  if (is_coordinator()) {
    // The coordinator's own operations apply immediately (zero local time).
    respond(token, obj_->apply(op));
    return;
  }
  send(coordinator_, make_msg<CentralRequestPayload>(op, token));
  if (give_up_after_ > 0) {
    give_up_token_ = token;
    give_up_timer_ =
        set_timer(give_up_after_, TimerTag{kGiveUp, Timestamp{token, id()}});
  }
}

void CentralizedProcess::on_message(ProcessId from, const MessagePayload& payload) {
  if (const auto* req = payload_as<CentralRequestPayload>(payload)) {
    // Linearization point: application at the coordinator, in arrival order.
    Value ret = obj_->apply(req->op);
    send(from, make_msg<CentralReplyPayload>(req->token, std::move(ret)));
    return;
  }
  if (const auto* reply = payload_as<CentralReplyPayload>(payload)) {
    if (give_up_token_ == reply->token) {
      cancel_timer(give_up_timer_);
      give_up_token_ = -1;
    }
    respond(reply->token, reply->ret);
    return;
  }
}

void CentralizedProcess::on_timer(TimerId /*id*/, const TimerTag& tag) {
  if (tag.kind != kGiveUp) return;
  const std::int64_t token = tag.ts.clock_time;
  if (give_up_token_ != token) return;  // already answered
  give_up_token_ = -1;
  give_up(token);
}

}  // namespace linbound
