// The folklore centralized implementation (Chapter I.A.3): one coordinator
// owns the object; every operation is shipped to it and applied in arrival
// order.  Trivially linearizable; every remote operation takes at most
// 2d (request <= d, reply <= d) and at least 2(d-u).  This is the baseline
// Algorithm 1 is measured against in bench_baseline_2d.
#pragma once

#include <memory>

#include "sim/process.h"
#include "spec/object_model.h"

namespace linbound {

struct CentralRequestPayload final : TaggedPayload<CentralRequestPayload> {
  Operation op;
  std::int64_t token = -1;  ///< the invoker's token, echoed in the reply
  CentralRequestPayload(Operation o, std::int64_t t) : op(std::move(o)), token(t) {}
};

struct CentralReplyPayload final : TaggedPayload<CentralReplyPayload> {
  std::int64_t token = -1;
  Value ret;
  CentralReplyPayload(std::int64_t t, Value r) : token(t), ret(std::move(r)) {}
};

class CentralizedProcess final : public Process {
 public:
  /// All processes must agree on the coordinator id.  With a positive
  /// `give_up_after`, a client that hears nothing for that long after an
  /// invocation abandons it (Process::give_up) -- a dead coordinator then
  /// degrades to a Stalled run outcome instead of a forever-pending
  /// operation; 0 keeps the historical wait-forever behavior.
  CentralizedProcess(std::shared_ptr<const ObjectModel> model,
                     ProcessId coordinator, Tick give_up_after = 0);

  void on_invoke(std::int64_t token, const Operation& op) override;
  void on_message(ProcessId from, const MessagePayload& payload) override;
  void on_timer(TimerId id, const TimerTag& tag) override;

 private:
  enum TimerKind : int { kGiveUp = 1 };

  bool is_coordinator() const { return id() == coordinator_; }

  std::shared_ptr<const ObjectModel> model_;
  ProcessId coordinator_;
  Tick give_up_after_;
  std::unique_ptr<ObjectState> obj_;  ///< live only on the coordinator
  /// The pending give-up timer, if any.  The model allows one pending
  /// operation per process, so a scalar slot replaces the seed's per-token
  /// std::map: -1 means no operation is being timed.
  std::int64_t give_up_token_ = -1;
  TimerId give_up_timer_ = 0;
};

}  // namespace linbound
