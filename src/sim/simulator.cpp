#include "sim/simulator.h"

#include <stdexcept>
#include <utility>

namespace linbound {

namespace {

/// A kInvoke / kCrash / kRecover event on `pid` (`a` = invocation token).
SimEvent process_event(EventKind kind, ProcessId pid, std::int64_t a = 0) {
  SimEvent ev;
  ev.kind = kind;
  ev.pid = pid;
  ev.a = a;
  return ev;
}

SimEvent deliver_event(ProcessId to, std::size_t record_index,
                       const MessagePayload* payload) {
  SimEvent ev;
  ev.kind = EventKind::kDeliver;
  ev.pid = to;
  ev.a = static_cast<std::int64_t>(record_index);
  ev.payload = payload;
  return ev;
}

SimEvent timer_event(ProcessId pid, TimerId id, int epoch,
                     const TimerTag& tag) {
  SimEvent ev;
  ev.kind = EventKind::kTimer;
  ev.pid = pid;
  ev.a = id;
  ev.epoch = epoch;
  ev.tag_kind = tag.kind;
  ev.tag_clock = tag.ts.clock_time;
  ev.tag_pid = tag.ts.pid;
  return ev;
}

}  // namespace

Simulator::Simulator(SimConfig config)
    : config_(std::move(config)) {
  if (!config_.timing.valid()) {
    throw std::invalid_argument("SimConfig: invalid SystemTiming");
  }
  if (!config_.delays) {
    config_.delays = std::make_shared<FixedDelayPolicy>(config_.timing.d);
  }
  trace_.timing = config_.timing;
}

ProcessId Simulator::add_process(std::unique_ptr<Process> proc) {
  if (started_) throw std::logic_error("add_process after start()");
  const ProcessId pid = static_cast<ProcessId>(procs_.size());
  proc->sim_ = this;
  proc->id_ = pid;
  procs_.push_back(std::move(proc));
  op_pending_.push_back(false);
  crashed_.push_back(false);
  crash_epoch_.push_back(0);
  timer_slots_.emplace_back();
  timer_free_.emplace_back();
  if (config_.clock_offsets.size() < procs_.size()) {
    config_.clock_offsets.resize(procs_.size(), 0);
  }
  trace_.clock_offsets = config_.clock_offsets;
  return pid;
}

std::int64_t Simulator::invoke_at(Tick t, ProcessId pid, Operation op) {
  const std::int64_t token = static_cast<std::int64_t>(trace_.ops.size());
  OperationRecord rec;
  rec.token = token;
  rec.proc = pid;
  rec.op = std::move(op);
  // invoke_time is stamped when the event actually fires (t may be in the
  // past relative to queue processing only if the caller made an error; the
  // event queue still fires it in time order).
  rec.invoke_time = kNoTime;
  trace_.ops.push_back(std::move(rec));
  queue_.push_typed(t, EventPriority::kNormal,
                    process_event(EventKind::kInvoke, pid, token));
  return token;
}

void Simulator::call_at(Tick t, std::function<void()> fn) {
  queue_.push(t, std::move(fn));
}

void Simulator::crash_at(Tick t, ProcessId pid) {
  if (pid < 0 || pid >= process_count()) {
    throw std::out_of_range("crash_at: unknown process");
  }
  if (t < now_) {
    throw std::invalid_argument("crash_at: time " + std::to_string(t) +
                                " is in the past (now = " +
                                std::to_string(now_) + ")");
  }
  queue_.push_typed(t, EventPriority::kNormal,
                    process_event(EventKind::kCrash, pid));
}

void Simulator::do_crash(ProcessId pid) {
  if (crashed_[static_cast<std::size_t>(pid)]) {
    throw std::logic_error("crash_at: process " + std::to_string(pid) +
                           " is already crashed (double crash at tick " +
                           std::to_string(now_) + ")");
  }
  crashed_[static_cast<std::size_t>(pid)] = true;
  trace_.faults.push_back(
      {FaultKind::kProcessCrashed, now_, pid, kNoProcess, -1, 0});
}

void Simulator::recover_at(Tick t, ProcessId pid) {
  if (pid < 0 || pid >= process_count()) {
    throw std::out_of_range("recover_at: unknown process");
  }
  if (t < now_) {
    throw std::invalid_argument("recover_at: time " + std::to_string(t) +
                                " is in the past (now = " +
                                std::to_string(now_) + ")");
  }
  queue_.push_typed(t, EventPriority::kNormal,
                    process_event(EventKind::kRecover, pid));
}

void Simulator::do_recover(ProcessId pid) {
  const auto idx = static_cast<std::size_t>(pid);
  if (!crashed_[idx]) {
    throw std::logic_error("recover_at: process " + std::to_string(pid) +
                           " is not crashed at tick " + std::to_string(now_));
  }
  crashed_[idx] = false;
  ++crash_epoch_[idx];
  // The cut operation (if any) stays pending in the trace; the restarted
  // process has a free invocation slot again.
  op_pending_[idx] = false;
  trace_.faults.push_back({FaultKind::kProcessRecovered, now_, pid,
                           kNoProcess, -1, crash_epoch_[idx]});
  procs_[idx]->on_recover();
  if (recovery_hook_) recovery_hook_(pid, now_);
}

void Simulator::start() {
  if (started_) throw std::logic_error("start() called twice");
  started_ = true;
  trace_.clock_offsets = config_.clock_offsets;
  for (auto& proc : procs_) proc->on_start();
}

bool Simulator::run() { return run_until(kTimeInfinity); }

bool Simulator::run_until(Tick t) {
  if (step_through(t) == WindowOutcome::kBudget) return false;
  if (t != kTimeInfinity && t > trace_.end_time) trace_.end_time = t;
  return queue_.empty();
}

WindowOutcome Simulator::run_window(Tick horizon) {
  return step_through(horizon - 1);  // half-open: the horizon is excluded
}

WindowOutcome Simulator::step_through(Tick last) {
  if (!started_) throw std::logic_error("run before start()");
  while (!queue_.empty() && queue_.next_time() <= last) {
    if (events_processed_ >= config_.max_events) return WindowOutcome::kBudget;
    const SimEvent ev = queue_.pop();
    now_ = ev.time;
    // kCall events are unrecorded instrumentation (call_at); the trace
    // horizon tracks observable activity only, so they must not extend it.
    if (ev.kind != EventKind::kCall && now_ > trace_.end_time) {
      trace_.end_time = now_;
    }
    ++events_processed_;
    dispatch(ev);
  }
  return queue_.empty() ? WindowOutcome::kDrained : WindowOutcome::kHorizon;
}

void Simulator::dispatch(const SimEvent& ev) {
  switch (ev.kind) {
    case EventKind::kCall:
      queue_.take_call()();
      return;
    case EventKind::kInvoke:
      dispatch_invoke(ev.pid, ev.a);
      return;
    case EventKind::kDeliver:
      deliver(static_cast<std::size_t>(ev.a), ev.payload);
      return;
    case EventKind::kTimer:
      fire_timer(ev.pid, ev.a, TimerTag{ev.tag_kind, ev.tag_ts()}, ev.epoch);
      return;
    case EventKind::kCrash:
      do_crash(ev.pid);
      return;
    case EventKind::kRecover:
      do_recover(ev.pid);
      return;
  }
}

Tick Simulator::local_time_of(ProcessId pid) const {
  const Tick base = now_ + config_.clock_offsets.at(static_cast<std::size_t>(pid));
  const auto idx = static_cast<std::size_t>(pid);
  if (idx >= config_.clock_drift_ppm.size() || config_.clock_drift_ppm[idx] == 0) {
    return base;
  }
  // local = c + t + floor(t * ppm / 1e6); drift is measured from real time
  // zero.  Integer arithmetic: |t| stays far below 2^63 / |ppm|.
  return base + now_ * config_.clock_drift_ppm[idx] / 1'000'000;
}

Tick Simulator::real_delta_for_local(ProcessId pid, Tick local_delta) const {
  const auto idx = static_cast<std::size_t>(pid);
  if (idx >= config_.clock_drift_ppm.size() || config_.clock_drift_ppm[idx] == 0) {
    return local_delta;
  }
  const Tick start = local_time_of(pid);
  // First guess from the rate, then adjust: local(t) is nondecreasing and
  // advances by ~rate per tick, so a couple of steps suffice.
  const std::int64_t ppm = config_.clock_drift_ppm[idx];
  Tick delta = local_delta * 1'000'000 / (1'000'000 + ppm);
  if (delta < 1) delta = 1;
  auto local_at = [&](Tick real_delta) {
    const Tick t = now_ + real_delta;
    return t + config_.clock_offsets[idx] + t * ppm / 1'000'000;
  };
  while (local_at(delta) - start < local_delta) ++delta;
  while (delta > 1 && local_at(delta - 1) - start >= local_delta) --delta;
  return delta;
}

Tick Simulator::stall_deferral(ProcessId pid) {
  if (!config_.faults) return kNoTime;
  const Tick until = config_.faults->stalled_until(pid, now_);
  if (until == kNoTime || until <= now_) return kNoTime;
  return until;
}

void Simulator::send_from(ProcessId from, ProcessId to,
                          const MessagePayload* payload) {
  if (to < 0 || to >= process_count()) {
    throw std::out_of_range("send to unknown process");
  }
  if (crashed(from)) return;  // a crashed process sends nothing
  const MessageId id = next_message_id_++;
  const Tick delay = config_.delays->delay(from, to, now_, id);
  if (delay < 0) {
    // Inadmissible delays (outside [d-u, d]) are executable on purpose --
    // the modified-shift experiments need them -- but receive-before-send
    // is not a run in any model.
    throw std::invalid_argument("delay policy returned a negative delay");
  }

  FaultDecision fault;
  if (config_.faults) fault = config_.faults->on_send(from, to, now_, id);
  if (fault.delay_boost < 0) {
    throw std::invalid_argument("fault policy returned a negative delay boost");
  }
  if (fault.delay_boost > 0) {
    trace_.faults.push_back(
        {FaultKind::kDelaySpike, now_, from, to, id, fault.delay_boost});
  }
  const Tick recv_time = now_ + delay + fault.delay_boost;

  const std::size_t record_index = trace_.messages.size();
  MessageRecord rec;
  rec.id = id;
  rec.from = from;
  rec.to = to;
  rec.send_time = now_;
  rec.recv_time = kNoTime;  // filled in on delivery
  trace_.messages.push_back(rec);

  if (fault.drop) {
    // The send happened (the record stays, undelivered); the network ate it.
    trace_.faults.push_back(
        {FaultKind::kMessageDropped, now_, from, to, id, 0});
  } else {
    // Deliveries outrank simultaneous timers (see event_queue.h): a message
    // arriving at the very tick a hold-back or respond timer fires is
    // processed first, matching the model's step ordering that Lemma C.9's
    // boundary case relies on.
    queue_.push_typed(recv_time, EventPriority::kDelivery,
                      deliver_event(to, record_index, payload));
  }

  // Duplicates: each extra copy is an independent transmission with its own
  // record (fresh id, its own policy delay), linked to the original by a
  // kMessageDuplicated fault event.
  for (int copy = 0; copy < fault.extra_copies; ++copy) {
    const MessageId dup_id = next_message_id_++;
    Tick dup_delay = config_.delays->delay(from, to, now_, dup_id);
    if (dup_delay < 0) {
      throw std::invalid_argument("delay policy returned a negative delay");
    }
    dup_delay += fault.delay_boost;
    const std::size_t dup_index = trace_.messages.size();
    MessageRecord dup = rec;
    dup.id = dup_id;
    trace_.messages.push_back(dup);
    trace_.faults.push_back(
        {FaultKind::kMessageDuplicated, now_, from, to, dup_id,
         static_cast<Tick>(id)});
    queue_.push_typed(now_ + dup_delay, EventPriority::kDelivery,
                      deliver_event(to, dup_index, payload));
  }
}

void Simulator::deliver(std::size_t record_index,
                        const MessagePayload* payload) {
  const MessageRecord& rec = trace_.messages[record_index];
  const ProcessId to = rec.to;
  if (crashed(to)) return;  // receipt lost; the record stays undelivered
  const Tick until = stall_deferral(to);
  if (until != kNoTime) {
    // The recipient is stalled: the message sits in its buffer until the
    // window ends.  Nothing is lost, everything is late.
    trace_.faults.push_back(
        {FaultKind::kProcessStalled, now_, to, rec.from, rec.id, until - now_});
    queue_.push_typed(until, EventPriority::kDelivery,
                      deliver_event(to, record_index, payload));
    return;
  }
  trace_.messages[record_index].recv_time = now_;
  procs_[static_cast<std::size_t>(to)]->on_message(rec.from, *payload);
}

TimerId Simulator::set_timer_for(ProcessId pid, Tick local_delta, TimerTag tag) {
  if (local_delta < 0) throw std::invalid_argument("negative timer delta");
  auto& slots = timer_slots_[static_cast<std::size_t>(pid)];
  auto& free = timer_free_[static_cast<std::size_t>(pid)];
  std::int32_t slot;
  if (!free.empty()) {
    slot = free.back();
    free.pop_back();
  } else {
    slot = static_cast<std::int32_t>(slots.size());
    if (slot > kTimerSlotMask) {
      throw std::logic_error("timer slot table exhausted on process " +
                             std::to_string(pid));
    }
    slots.emplace_back();
  }
  TimerSlot& s = slots[static_cast<std::size_t>(slot)];
  s.armed = true;
  const TimerId id = (s.gen << kTimerSlotBits) | slot;
  ++trace_.stats.timers_set;
  // Without drift a local-clock delta equals a real-time delta; with drift
  // the conversion goes through the process's clock rate.  The timer
  // belongs to the arming incarnation: if the process crashes and recovers
  // before it fires, it is dead (volatile state does not survive a crash).
  const int epoch = crash_epoch_[static_cast<std::size_t>(pid)];
  queue_.push_typed(now_ + real_delta_for_local(pid, local_delta),
                    EventPriority::kNormal, timer_event(pid, id, epoch, tag));
  return id;
}

void Simulator::release_timer_slot(ProcessId pid, std::int32_t slot) {
  TimerSlot& s = timer_slots_[static_cast<std::size_t>(pid)]
                             [static_cast<std::size_t>(slot)];
  s.armed = false;
  ++s.gen;
  timer_free_[static_cast<std::size_t>(pid)].push_back(slot);
}

void Simulator::fire_timer(ProcessId pid, TimerId id, TimerTag tag, int epoch) {
  auto& slots = timer_slots_[static_cast<std::size_t>(pid)];
  const auto slot = static_cast<std::int32_t>(id & kTimerSlotMask);
  const std::int64_t gen = id >> kTimerSlotBits;
  TimerSlot& s = slots[static_cast<std::size_t>(slot)];
  if (!s.armed || s.gen != gen) {
    // Lazily-cancelled (or recycled) timer event: purge it in two loads
    // instead of dispatching.  Observable behavior matches the seed's
    // popped-and-discarded path exactly; only the counter is new.
    ++trace_.stats.timers_purged;
    return;
  }
  if (epoch != crash_epoch_[static_cast<std::size_t>(pid)]) {
    // Armed before a crash the process recovered from: dead with its epoch.
    release_timer_slot(pid, slot);
    ++trace_.stats.timers_purged;
    return;
  }
  if (!crashed(pid)) {
    const Tick until = stall_deferral(pid);
    if (until != kNoTime) {
      // Stalled: the timer stays armed and goes off when the window ends
      // (it cannot fire early, and a stalled process takes no steps).
      trace_.faults.push_back(
          {FaultKind::kProcessStalled, now_, pid, kNoProcess, -1, until - now_});
      queue_.push_typed(until, EventPriority::kNormal,
                        timer_event(pid, id, epoch, tag));
      return;
    }
  }
  release_timer_slot(pid, slot);
  if (crashed(pid)) return;
  procs_[static_cast<std::size_t>(pid)]->on_timer(id, tag);
}

void Simulator::cancel_timer_for(ProcessId pid, TimerId id) {
  auto& slots = timer_slots_[static_cast<std::size_t>(pid)];
  const auto slot = static_cast<std::int32_t>(id & kTimerSlotMask);
  if (slot < 0 || static_cast<std::size_t>(slot) >= slots.size()) return;
  const TimerSlot& s = slots[static_cast<std::size_t>(slot)];
  if (!s.armed || s.gen != (id >> kTimerSlotBits)) return;  // already fired
  release_timer_slot(pid, slot);
  ++trace_.stats.timers_cancelled;
}

void Simulator::respond_for(ProcessId pid, std::int64_t token, Value ret) {
  if (crashed(pid)) return;  // a crashed process cannot respond
  OperationRecord& rec = trace_.ops.at(static_cast<std::size_t>(token));
  if (rec.proc != pid) throw std::logic_error("respond from wrong process");
  if (rec.gave_up) return;  // late answer to an abandoned operation: ignored
  if (rec.completed()) throw std::logic_error("double response for operation");
  rec.response_time = now_;
  rec.ret = std::move(ret);
  op_pending_[static_cast<std::size_t>(pid)] = false;
  if (response_hook_) response_hook_(rec);
}

void Simulator::give_up_for(ProcessId pid, std::int64_t token) {
  if (crashed(pid)) return;  // a crashed process takes no steps
  OperationRecord& rec = trace_.ops.at(static_cast<std::size_t>(token));
  if (rec.proc != pid) throw std::logic_error("give_up from wrong process");
  if (rec.completed()) throw std::logic_error("give_up after response");
  if (rec.gave_up) throw std::logic_error("double give_up for operation");
  rec.gave_up = true;
  rec.give_up_time = now_;
  op_pending_[static_cast<std::size_t>(pid)] = false;
  trace_.faults.push_back(
      {FaultKind::kOperationGivenUp, now_, pid, kNoProcess, -1, token});
}

void Simulator::dispatch_invoke(ProcessId pid, std::int64_t token) {
  if (crashed(pid)) return;  // invocation lost; the record stays pending
  const Tick until = stall_deferral(pid);
  if (until != kNoTime) {
    // A stalled process accepts the invocation only once it wakes up.
    trace_.faults.push_back(
        {FaultKind::kProcessStalled, now_, pid, kNoProcess, -1, until - now_});
    queue_.push_typed(until, EventPriority::kNormal,
                      process_event(EventKind::kInvoke, pid, token));
    return;
  }
  if (op_pending_.at(static_cast<std::size_t>(pid))) {
    throw std::logic_error(
        "application invoked an operation while another is pending on "
        "process " +
        std::to_string(pid));
  }
  op_pending_[static_cast<std::size_t>(pid)] = true;
  OperationRecord& rec = trace_.ops.at(static_cast<std::size_t>(token));
  rec.invoke_time = now_;
  if (invoke_hook_) invoke_hook_(rec);
  procs_[static_cast<std::size_t>(pid)]->on_invoke(token, rec.op);
}

}  // namespace linbound
