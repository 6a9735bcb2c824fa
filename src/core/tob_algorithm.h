// The second folklore baseline of Chapter I.A.3: a shared object built on a
// total-order broadcast primitive, here the classic sequencer-based
// implementation over the point-to-point layer:
//
//   * the invoker ships <op, token> to the sequencer (<= d);
//   * the sequencer stamps a global sequence number and broadcasts (<= d);
//   * every process applies deliveries in sequence order; the invoker
//     responds when it applies its own operation.
//
// Worst case 2d for every operation -- matching the paper's remark that
// totally ordered broadcast "is not faster than the centralized scheme when
// taking into account the time overhead to implement [it] on top of a
// point-to-point message system".  bench_baseline_2d compares all three.
//
// The sequencer's own operations still take a self-broadcast round trip
// (they are sequenced like everyone else's), unlike the centralized
// coordinator which answers its own operations instantly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pending_tables.h"
#include "sim/process.h"
#include "spec/object_model.h"

namespace linbound {

struct TobSubmitPayload final : TaggedPayload<TobSubmitPayload> {
  Operation op;
  std::int64_t token = -1;
  ProcessId origin = kNoProcess;
  TobSubmitPayload(Operation o, std::int64_t t, ProcessId p)
      : op(std::move(o)), token(t), origin(p) {}
};

struct TobDeliverPayload final : TaggedPayload<TobDeliverPayload> {
  Operation op;
  std::int64_t token = -1;
  ProcessId origin = kNoProcess;
  std::int64_t seq = 0;
  TobDeliverPayload(Operation o, std::int64_t t, ProcessId p, std::int64_t s)
      : op(std::move(o)), token(t), origin(p), seq(s) {}
};

class TobProcess final : public Process {
 public:
  /// With a positive `give_up_after`, a non-sequencer that never sees its
  /// own operation come back sequenced abandons it after that long
  /// (Process::give_up), so a dead sequencer degrades to a Stalled run
  /// outcome; 0 keeps the historical wait-forever behavior.
  TobProcess(std::shared_ptr<const ObjectModel> model, ProcessId sequencer,
             Tick give_up_after = 0);

  void on_invoke(std::int64_t token, const Operation& op) override;
  void on_message(ProcessId from, const MessagePayload& payload) override;
  void on_timer(TimerId id, const TimerTag& tag) override;

  const ObjectState& local_copy() const { return *obj_; }

 private:
  enum TimerKind : int { kGiveUp = 1 };

  bool is_sequencer() const { return id() == sequencer_; }

  /// Sequence and disseminate one operation (sequencer only).
  void sequence(const Operation& op, std::int64_t token, ProcessId origin);

  /// Apply the delivery and any buffered successors, in sequence order.
  void deliver(const TobDeliverPayload& msg);
  void apply_in_order();

  std::shared_ptr<const ObjectModel> model_;
  ProcessId sequencer_;
  Tick give_up_after_;
  std::unique_ptr<ObjectState> obj_;
  std::int64_t next_seq_to_assign_ = 0;  // sequencer state
  std::int64_t next_seq_to_apply_ = 0;
  struct Buffered {
    Operation op;
    std::int64_t token = -1;
    ProcessId origin = kNoProcess;
  };
  /// Out-of-order deliveries.  Sequence numbers are assigned consecutively
  /// and applied as a head pop once the gap fills, so the flat table's
  /// append/head-pop fast path applies (core/pending_tables.h).
  FlatMap<std::int64_t, Buffered> buffer_;
  /// The pending give-up timer, if any.  One pending operation per process
  /// means at most one timed token, so a scalar slot replaces the seed's
  /// per-token std::map: -1 means no operation is being timed.
  std::int64_t give_up_token_ = -1;
  TimerId give_up_timer_ = 0;
};

}  // namespace linbound
