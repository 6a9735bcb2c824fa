#include "core/replica_algorithm.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace linbound {

Tick AlgorithmDelays::bound(OpClass cls) const {
  switch (cls) {
    case OpClass::kPureMutator:
      return mop_ack;
    case OpClass::kPureAccessor:
      return aop_respond;
    case OpClass::kOther:
      return self_add + holdback;
  }
  return 0;
}

AlgorithmDelays AlgorithmDelays::standard(const SystemTiming& timing, Tick x) {
  if (x < 0 || x > timing.d + timing.eps - timing.u) {
    throw std::invalid_argument("X must lie in [0, d+eps-u]");
  }
  AlgorithmDelays out;
  out.self_add = timing.d - timing.u;
  out.holdback = timing.u + timing.eps;
  // eps + X, but never zero: the paper's timestamp-uniqueness remark
  // (after Lemma C.11) needs a mutator to stay pending strictly longer
  // than X so that a same-process successor gets a larger timestamp; with
  // perfectly synchronized clocks (eps = 0) that requires one extra tick.
  out.mop_ack = std::max<Tick>(timing.eps, 1) + x;
  out.aop_respond = timing.d + timing.eps - x;
  out.aop_backdate = x;
  return out;
}

AlgorithmDelays AlgorithmDelays::eager_oop(const SystemTiming& timing, Tick x,
                                           Tick latency) {
  AlgorithmDelays out = standard(timing, x);
  out.self_add = std::min(out.self_add, latency);
  out.holdback = latency - out.self_add;
  return out;
}

AlgorithmDelays AlgorithmDelays::eager_mop(const SystemTiming& timing, Tick x,
                                           Tick latency) {
  AlgorithmDelays out = standard(timing, x);
  out.mop_ack = latency;
  return out;
}

AlgorithmDelays AlgorithmDelays::eager_aop(const SystemTiming& timing, Tick x,
                                           Tick latency) {
  AlgorithmDelays out = standard(timing, x);
  out.aop_respond = latency;
  return out;
}

AlgorithmDelays AlgorithmDelays::drift_compensated(const SystemTiming& timing,
                                                   Tick x,
                                                   std::int64_t max_abs_ppm,
                                                   Tick horizon) {
  if (max_abs_ppm < 0 || horizon < 0) {
    throw std::invalid_argument("drift compensation needs nonnegative bounds");
  }
  SystemTiming widened = timing;
  widened.eps = timing.eps + 2 * horizon * max_abs_ppm / 1'000'000 + 1;
  return standard(widened, x);
}

ReplicaProcess::ReplicaProcess(std::shared_ptr<const ObjectModel> model,
                               AlgorithmDelays delays)
    : model_(std::move(model)),
      delays_(delays),
      local_obj_(model_->initial_state()) {}

Tick ReplicaProcess::next_stamp_clock() {
  Tick clock = algo_clock();
  if (last_stamp_clock_ != kNoTime && clock <= last_stamp_clock_) {
    clock = last_stamp_clock_ + 1;
  }
  last_stamp_clock_ = clock;
  return clock;
}

void ReplicaProcess::on_invoke(std::int64_t token, const Operation& op) {
  const OpClass cls = model_->classify(op);

  if (cls == OpClass::kPureAccessor) {
    // Back-date the timestamp by X; do not broadcast (accessors do not
    // modify any copy).  Respond after d+eps-X, by which time every
    // operation with a smaller timestamp has been received and queued.
    // (Back-dating bypasses the monotonic guard on purpose: accessor
    // timestamps may legitimately precede earlier mutators' stamps.)
    const Timestamp ts{algo_clock() - delays_.aop_backdate, id()};
    awaiting_aop_.insert_or_assign(ts, PendingAccessor{op, token});
    set_timer(delays_.aop_respond, TimerTag{kAopRespond, ts});
    return;
  }

  // MOP and OOP share the broadcast / To_Execute path.
  const Timestamp ts{next_stamp_clock(), id()};
  broadcast(make_msg<OpBroadcastPayload>(op, ts));
  awaiting_self_add_.insert_or_assign(
      ts, StoredOwnOp{op, token, /*respond_on_execute=*/cls == OpClass::kOther});
  set_timer(delays_.self_add, TimerTag{kSelfAdd, ts});
  if (cls == OpClass::kPureMutator) {
    awaiting_mop_ack_.insert_or_assign(ts, token);
    set_timer(delays_.mop_ack, TimerTag{kMopAck, ts});
  }
}

void ReplicaProcess::on_message(ProcessId /*from*/, const MessagePayload& payload) {
  const auto& msg = dynamic_cast<const OpBroadcastPayload&>(payload);
  enqueue_replicated(msg.ts, msg.op);
}

void ReplicaProcess::on_timer(TimerId /*id*/, const TimerTag& tag) {
  switch (tag.kind) {
    case kSelfAdd: {
      auto own = awaiting_self_add_.extract(tag.ts);
      if (!own) return;
      queue_.add(PendingOp{tag.ts, std::move(own->op),
                           own->respond_on_execute ? own->token : -1});
      set_timer(delays_.holdback, TimerTag{kExecute, tag.ts});
      return;
    }
    case kExecute:
      execute_up_to(tag.ts, /*inclusive=*/true);
      return;
    case kMopAck: {
      auto token = awaiting_mop_ack_.extract(tag.ts);
      if (!token) return;
      respond(*token, Value::unit());
      return;
    }
    case kAopRespond: {
      auto acc = awaiting_aop_.extract(tag.ts);
      if (!acc) return;
      // Execute everything with a strictly smaller timestamp, then the
      // accessor itself on the local copy.
      execute_up_to(tag.ts, /*inclusive=*/false);
      const Value ret = local_obj_->apply(acc->op);
      respond(acc->token, ret);
      return;
    }
    default:
      return;
  }
}

void ReplicaProcess::execute_up_to(const Timestamp& ts, bool inclusive) {
  while (auto min_ts = queue_.min()) {
    const bool in_range = inclusive ? (*min_ts <= ts) : (*min_ts < ts);
    if (!in_range) break;
    PendingOp entry = queue_.extract_min();
    const Value ret = local_obj_->apply(entry.op);
    ++executed_count_;
    executed_frontier_ = entry.ts;
    if (entry.own_token >= 0) respond(entry.own_token, ret);
  }
}

std::vector<DrainedOwnOp> ReplicaProcess::drain_own_unresponded() const {
  std::map<Timestamp, DrainedOwnOp> merged;
  awaiting_self_add_.for_each([&](const Timestamp& ts, const StoredOwnOp& own) {
    DrainedOwnOp d;
    d.ts = ts;
    d.op = own.op;
    // A MOP's token is attached below from its ack record; an OOP responds
    // with the execution result.
    d.token = own.respond_on_execute ? own.token : -1;
    merged[ts] = std::move(d);
  });
  queue_.for_each([&](const Timestamp& ts, const Operation& op,
                      std::int64_t own_token) {
    if (own_token < 0) return;  // a peer's op: nothing owed here
    DrainedOwnOp d;
    d.ts = ts;
    d.op = op;
    d.token = own_token;
    merged[ts] = std::move(d);
  });
  awaiting_mop_ack_.for_each([&](const Timestamp& ts,
                                 const std::int64_t& token) {
    auto it = merged.find(ts);
    if (it != merged.end()) {
      // Still awaiting self-add: the op is known, only the ack shape
      // changes.
      it->second.token = token;
      it->second.ack_only = true;
      return;
    }
    DrainedOwnOp d;
    d.ts = ts;
    // Self-added already: the op sits in To_Execute (own_token -1 for
    // mutators) or has executed -- recover it if still queued.
    if (const Operation* queued = queue_.find(ts)) d.op = *queued;
    d.token = token;
    d.ack_only = true;
    merged[ts] = std::move(d);
  });
  awaiting_aop_.for_each([&](const Timestamp& ts, const PendingAccessor& acc) {
    DrainedOwnOp d;
    d.ts = ts;
    d.op = acc.op;
    d.token = acc.token;
    merged[ts] = std::move(d);
  });
  std::vector<DrainedOwnOp> out;
  out.reserve(merged.size());
  for (auto& [ts, d] : merged) out.push_back(std::move(d));
  return out;
}

void ReplicaProcess::reset_volatile_state() {
  local_obj_ = model_->initial_state();
  queue_.clear();
  executed_count_ = 0;
  last_stamp_clock_ = kNoTime;
  executed_frontier_.reset();
  awaiting_self_add_.clear();
  awaiting_mop_ack_.clear();
  awaiting_aop_.clear();
}

void ReplicaProcess::adopt_state(std::unique_ptr<ObjectState> state,
                                 std::optional<Timestamp> frontier,
                                 std::size_t executed) {
  local_obj_ = std::move(state);
  executed_frontier_ = frontier;
  executed_count_ = executed;
}

void ReplicaProcess::enqueue_replicated(const Timestamp& ts,
                                        const Operation& op) {
  queue_.add(PendingOp{ts, op, /*own_token=*/-1});
  set_timer(delays_.holdback, TimerTag{kExecute, ts});
}

}  // namespace linbound
