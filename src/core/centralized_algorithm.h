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
  /// All processes must agree on the coordinator id.  A client waits for
  /// its reply forever: with the coordinator dead, the run quiesces as
  /// kStalled with the operation pending.
  CentralizedProcess(std::shared_ptr<const ObjectModel> model,
                     ProcessId coordinator);

  void on_invoke(std::int64_t token, const Operation& op) override;
  void on_message(ProcessId from, const MessagePayload& payload) override;

 private:
  bool is_coordinator() const { return id() == coordinator_; }

  std::shared_ptr<const ObjectModel> model_;
  ProcessId coordinator_;
  std::unique_ptr<ObjectState> obj_;  ///< live only on the coordinator
};

}  // namespace linbound
