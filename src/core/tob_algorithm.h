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
  /// A non-sequencer waits for its own operation to come back sequenced
  /// forever: with the sequencer dead, the run quiesces as kStalled with
  /// the operation pending.
  TobProcess(std::shared_ptr<const ObjectModel> model, ProcessId sequencer);

  void on_invoke(std::int64_t token, const Operation& op) override;
  void on_message(ProcessId from, const MessagePayload& payload) override;

  const ObjectState& local_copy() const { return *obj_; }

 private:
  bool is_sequencer() const { return id() == sequencer_; }

  /// Sequence and disseminate one operation (sequencer only).
  void sequence(const Operation& op, std::int64_t token, ProcessId origin);

  /// Apply the delivery and any buffered successors, in sequence order.
  void deliver(const TobDeliverPayload& msg);
  void apply_in_order();

  std::shared_ptr<const ObjectModel> model_;
  ProcessId sequencer_;
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
};

}  // namespace linbound
