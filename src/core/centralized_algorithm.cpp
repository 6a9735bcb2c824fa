#include "core/centralized_algorithm.h"

namespace linbound {

CentralizedProcess::CentralizedProcess(std::shared_ptr<const ObjectModel> model,
                                       ProcessId coordinator)
    : model_(std::move(model)),
      coordinator_(coordinator),
      obj_(model_->initial_state()) {}

void CentralizedProcess::on_invoke(std::int64_t token, const Operation& op) {
  if (is_coordinator()) {
    // The coordinator's own operations apply immediately (zero local time).
    respond(token, obj_->apply(op));
    return;
  }
  send(coordinator_, make_msg<CentralRequestPayload>(op, token));
}

void CentralizedProcess::on_message(ProcessId from, const MessagePayload& payload) {
  if (const auto* req = payload_as<CentralRequestPayload>(payload)) {
    // Linearization point: application at the coordinator, in arrival order.
    Value ret = obj_->apply(req->op);
    send(from, make_msg<CentralReplyPayload>(req->token, std::move(ret)));
    return;
  }
  if (const auto* reply = payload_as<CentralReplyPayload>(payload)) {
    respond(reply->token, reply->ret);
    return;
  }
}

}  // namespace linbound
