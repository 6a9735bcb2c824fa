// A replica that runs *only* the asynchronous quorum backend: every
// operation goes through the Paxos log (quorum_engine.h) and is applied to
// the local copy in slot order -- plain state-machine replication.
//
// This is the degraded mode as a standalone object implementation: safe
// under arbitrary message delays, loss (the engine retries), duplication
// (per-slot agreement is idempotent) and minority crashes, at the price of
// quorum round trips where Algorithm 1 pays d+eps.  The mode-switching
// replica (mode_switching_replica.h) embeds the same engine; this class
// exists so the backend can be validated -- and benchmarked -- in
// isolation under the full fault/churn sweeps.
//
// Crash-recovery: engine state is stable storage (see quorum_engine.h); a
// recovered replica reawakens its engine and answers the operation the
// crash cut from the committed log -- no client retry needed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "degrade/quorum_engine.h"
#include "sim/process.h"
#include "spec/object_model.h"

namespace linbound {

class QuorumReplicaProcess final : public Process, public QuorumHost {
 public:
  explicit QuorumReplicaProcess(std::shared_ptr<const ObjectModel> model);

  void on_start() override;
  void on_invoke(std::int64_t token, const Operation& op) override;
  void on_message(ProcessId from, const MessagePayload& payload) override;
  void on_timer(TimerId id, const TimerTag& tag) override;
  void on_recover() override;

  // QuorumHost
  PayloadArena& quorum_arena() override { return arena(); }
  void quorum_send(std::int64_t tag, ProcessId to,
                   const MessagePayload* payload) override;
  void quorum_set_timer(std::int64_t tag, Tick delta,
                        std::int64_t cookie) override;
  void quorum_committed(std::int64_t tag, std::int64_t slot,
                        const QuorumValue& value) override;

  /// Introspection for tests.
  const ObjectState& local_copy() const { return *obj_; }
  const QuorumEngine& engine() const { return *engine_; }

 private:
  /// Timer kind for engine timers; the cookie rides in ts.clock_time.
  static constexpr int kQuorumTimer = 300;

  std::shared_ptr<const ObjectModel> model_;
  /// Created in on_start (needs id() and process_count()).
  std::unique_ptr<QuorumEngine> engine_;
  std::unique_ptr<ObjectState> obj_;
  std::int64_t next_op_id_ = 0;
  std::map<std::int64_t, std::int64_t> pending_tokens_;  ///< op_id -> token
};

}  // namespace linbound
