#include "degrade/mode_switching_replica.h"

#include <algorithm>

namespace linbound {

ModeSwitchingReplica::ModeSwitchingReplica(
    std::shared_ptr<const ObjectModel> model, AlgorithmDelays delays,
    HardenedParams link_params)
    : HardenedReplicaProcess(model, delays, link_params),
      era_start_state_(Snapshot::initial(*model)) {}

Tick ModeSwitchingReplica::drain_fallback_delay() const {
  return 2 * link_params().effective_d(timing()) + 1;
}

QuorumEngine& ModeSwitchingReplica::ensure_engine(int era) {
  auto it = engines_.find(era);
  if (it == engines_.end()) {
    it = engines_
             .emplace(era, std::make_unique<QuorumEngine>(
                               *this, era, id(), process_count(), timing()))
             .first;
  }
  return *it->second;
}

// --- routing ------------------------------------------------------------

void ModeSwitchingReplica::send(ProcessId to, const MessagePayload* payload) {
  if (const auto* op = payload_as<OpBroadcastPayload>(*payload)) {
    // Called once per broadcast recipient; the emplace dedups.  Recording
    // at send (not at invoke) also catches enqueue_replicated re-feeds.
    era_ops_.emplace(op->ts, op->op);
    HardenedReplicaProcess::send(to, make_msg<EraOpPayload>(era_, op));
    return;
  }
  HardenedReplicaProcess::send(to, payload);
}

void ModeSwitchingReplica::deliver_app(ProcessId from,
                                       const MessagePayload& payload) {
  if (const auto* eo = payload_as<EraOpPayload>(payload)) {
    if (eo->era == era_ &&
        (phase_ == Phase::kSync || phase_ == Phase::kDraining)) {
      era_ops_.emplace(eo->inner->ts, eo->inner->op);
      // While draining, the broadcast is only *recorded* (it may still make
      // a peer's report); the synchronous machinery is already torn down.
      if (phase_ == Phase::kSync) ReplicaProcess::on_message(from, *eo->inner);
    } else if (eo->era > era_) {
      // The sender reached a later sync era first; replay when we arrive.
      future_sync_.push_back({eo->era, eo->inner->ts, eo->inner->op});
    }
    return;  // broadcasts of ended eras are settled history: ignore
  }
  if (const auto* dr = payload_as<DrainReportPayload>(payload)) {
    if (dr->era == era_ &&
        (phase_ == Phase::kSync || phase_ == Phase::kDraining)) {
      reports_[from] = dr->entries;
      maybe_propose_base();
    }
    return;
  }
  if (const auto* qe = payload_as<QEraPayload>(payload)) {
    // Any era: sealed engines still serve catch-up, future engines start
    // life as acceptors (always safe) and stash their commits for later.
    ensure_engine(qe->era).on_message(from, *qe->inner);
    return;
  }
  HardenedReplicaProcess::deliver_app(from, payload);
}

void ModeSwitchingReplica::on_invoke(std::int64_t token, const Operation& op) {
  switch (phase_) {
    case Phase::kSync:
      ReplicaProcess::on_invoke(token, op);
      return;
    case Phase::kAsync:
      propose_own_op(op, token,
                     object_model().classify(op) == OpClass::kPureMutator);
      return;
    case Phase::kDraining:
    case Phase::kSealing:
      deferred_.emplace_back(token, op);
      return;
  }
}

void ModeSwitchingReplica::on_timer(TimerId id, const TimerTag& tag) {
  if (tag.kind == kQuorumTimer) {
    // ts.pid carries the era; a crash may have dropped the engine's whole
    // timer set, so a missing engine is impossible but a stale era is not.
    auto it = engines_.find(static_cast<int>(tag.ts.pid));
    if (it != engines_.end()) it->second->on_timer(tag.ts.clock_time);
    return;
  }
  if (tag.kind == kDrainFallback) {
    if (phase_ == Phase::kDraining &&
        static_cast<int>(tag.ts.clock_time) == async_era_) {
      maybe_propose_base(/*force=*/true);
    }
    return;
  }
  HardenedReplicaProcess::on_timer(id, tag);
}

// --- mode switching -----------------------------------------------------

void ModeSwitchingReplica::on_mode_signal(int target_era) {
  latest_target_ = std::max(latest_target_, target_era);
  maybe_chain();
}

void ModeSwitchingReplica::maybe_chain() {
  if (latest_target_ <= era_) return;
  // Transitions re-check at the next stable phase (do_base / do_seal).
  if (phase_ == Phase::kSync) {
    begin_downgrade();
  } else if (phase_ == Phase::kAsync) {
    begin_seal();
  }
}

void ModeSwitchingReplica::begin_downgrade() {
  phase_ = Phase::kDraining;
  async_era_ = era_ + 1;
  ++downgrades_;
  ensure_engine(async_era_);
  // Drain: own unresponded operations keep their tokens; their operations
  // join the era history (accessors were never broadcast, so this is where
  // they enter it).  Then tear the synchronous machinery down -- stale
  // timers find empty maps.
  for (const DrainedOwnOp& d : drain_own_unresponded()) {
    if (d.op) era_ops_.emplace(d.ts, *d.op);
    if (d.token >= 0) {
      drained_tokens_[d.ts] = DrainedToken{d.op, d.token, d.ack_only};
    }
  }
  reset_volatile_state();
  based_ = false;
  base_proposed_ = false;
  std::vector<BaseEntry> mine;
  mine.reserve(era_ops_.size());
  for (const auto& [ts, op] : era_ops_) mine.push_back({ts, op});
  reports_[id()] = mine;
  broadcast(make_msg<DrainReportPayload>(era_, std::move(mine)));
  set_timer(drain_fallback_delay(),
            TimerTag{kDrainFallback, Timestamp{async_era_, id()}});
  maybe_propose_base();            // n == 1, or every report already here
  process_commits(async_era_);     // stashed commits from catch-up
}

void ModeSwitchingReplica::maybe_propose_base(bool force) {
  if (phase_ != Phase::kDraining || base_proposed_ || based_) return;
  if (!force && static_cast<int>(reports_.size()) < process_count()) return;
  base_proposed_ = true;
  std::map<Timestamp, Operation> merged;
  for (const auto& [pid, entries] : reports_) {
    for (const BaseEntry& be : entries) merged.emplace(be.ts, be.op);
  }
  QuorumValue v;
  v.kind = QuorumValueKind::kBase;
  v.origin = id();
  v.base.reserve(merged.size());
  for (const auto& [ts, op] : merged) v.base.push_back({ts, op});
  ensure_engine(async_era_).propose(std::move(v));
}

void ModeSwitchingReplica::begin_seal() {
  phase_ = Phase::kSealing;
  QuorumValue v;
  v.kind = QuorumValueKind::kSeal;
  v.origin = id();
  ensure_engine(async_era_).propose(std::move(v));
}

void ModeSwitchingReplica::propose_own_op(const Operation& op,
                                          std::int64_t token, bool ack_only) {
  QuorumValue v;
  v.kind = QuorumValueKind::kOp;
  v.origin = id();
  v.op_id = next_op_id_++;
  v.op = op;
  own_async_tokens_[v.op_id] = OwnAsyncOp{op, token, ack_only, false};
  ensure_engine(async_era_).propose(std::move(v));
}

void ModeSwitchingReplica::flush_deferred() {
  std::vector<std::pair<std::int64_t, Operation>> d = std::move(deferred_);
  deferred_.clear();
  for (auto& [token, op] : d) on_invoke(token, op);
}

// --- commit processing --------------------------------------------------

void ModeSwitchingReplica::quorum_committed(std::int64_t tag,
                                            std::int64_t slot,
                                            const QuorumValue& value) {
  commits_[static_cast<int>(tag)].emplace_back(slot, value);
  process_commits(static_cast<int>(tag));
}

void ModeSwitchingReplica::process_commits(int era) {
  if (era != async_era_) return;  // not there yet (or already sealed)
  if (processing_commits_) return;  // the outer loop's cursor will get it
  processing_commits_ = true;
  std::vector<std::pair<std::int64_t, QuorumValue>>& log = commits_[era];
  std::size_t& pos = commits_pos_[era];
  while (pos < log.size()) {
    if (era != async_era_) break;  // sealed mid-loop: the rest is void
    // Copy: handlers can append to (and thus reallocate) the log.
    const QuorumValue value = log[pos].second;
    ++pos;
    handle_commit(era, value);
  }
  processing_commits_ = false;
}

void ModeSwitchingReplica::handle_commit(int era, const QuorumValue& value) {
  switch (value.kind) {
    case QuorumValueKind::kNoop:
      return;
    case QuorumValueKind::kBase:
      if (!based_) do_base(era, value);
      return;  // competing bases lost the slot race: first one is THE base
    case QuorumValueKind::kOp:
      if (!based_) {
        pre_base_ops_.push_back(value);
      } else {
        apply_op(value);
      }
      return;
    case QuorumValueKind::kSeal:
      do_seal(era);
      return;
  }
}

void ModeSwitchingReplica::apply_op(const QuorumValue& value) {
  if (!applied_ids_.insert({value.origin, value.op_id}).second) return;
  const Value ret = async_obj_.apply(value.op);
  if (value.origin != id()) return;
  auto it = own_async_tokens_.find(value.op_id);
  if (it == own_async_tokens_.end() || it->second.responded) return;
  it->second.responded = true;
  respond(it->second.token, it->second.ack_only ? Value::unit() : ret);
}

void ModeSwitchingReplica::do_base(int era, const QuorumValue& value) {
  based_ = true;
  Snapshot st = era_start_state_;  // O(1) copy-on-write handle
  for (const BaseEntry& be : value.base) {
    const Value ret = st.apply(be.op);
    auto dt = drained_tokens_.find(be.ts);
    if (dt == drained_tokens_.end()) continue;
    respond(dt->second.token,
            dt->second.ack_only ? Value::unit() : ret);
    drained_tokens_.erase(dt);
  }
  async_obj_ = std::move(st);
  // Drained tokens whose operation missed the winning base: re-propose as
  // ordinary async ops (the evaporating-op edge in the header comment).
  for (auto& [ts, dt] : drained_tokens_) {
    std::optional<Operation> op = dt.op;
    if (!op) {
      auto eo = era_ops_.find(ts);
      if (eo != era_ops_.end()) op = eo->second;
    }
    if (op) {
      propose_own_op(*op, dt.token, dt.ack_only);
    } else {
      give_up(dt.token);  // unrecoverable; surfaces as kOperationGivenUp
    }
  }
  drained_tokens_.clear();
  ensure_engine(era).abandon_kind(QuorumValueKind::kBase);
  phase_ = Phase::kAsync;
  era_ = async_era_;
  for (const QuorumValue& v : pre_base_ops_) apply_op(v);
  pre_base_ops_.clear();
  flush_deferred();
  maybe_chain();
}

void ModeSwitchingReplica::do_seal(int era) {
  QuorumEngine& engine = ensure_engine(era);
  engine.abandon_kind(QuorumValueKind::kSeal);
  engine.abandon_kind(QuorumValueKind::kOp);
  ++upgrades_;
  // Own proposals the seal voided keep their tokens and are simply
  // re-invoked in the new era (they never responded, so this is a retry of
  // an operation that has not taken effect -- commits after the seal are
  // skipped by process_commits, and applied_ids_ dies with the era).
  std::vector<std::pair<std::int64_t, Operation>> void_ops;
  for (const auto& [op_id, own] : own_async_tokens_) {
    if (!own.responded) void_ops.emplace_back(own.token, own.op);
  }
  own_async_tokens_.clear();
  applied_ids_.clear();
  era_start_state_ = async_obj_;
  async_obj_ = Snapshot();
  reset_volatile_state();
  adopt_state(era_start_state_.to_state(), std::nullopt, 0);
  era_ = era + 1;
  phase_ = Phase::kSync;
  async_era_ = -1;
  era_ops_.clear();
  reports_.clear();
  pre_base_ops_.clear();
  drained_tokens_.clear();
  based_ = false;
  base_proposed_ = false;
  // Broadcasts from peers that reached this era first.
  std::size_t kept = 0;
  for (FutureSyncOp& f : future_sync_) {
    if (f.era == era_) {
      era_ops_.emplace(f.ts, f.op);
      enqueue_replicated(f.ts, f.op);
    } else if (f.era > era_) {
      future_sync_[kept++] = std::move(f);
    }
  }
  future_sync_.resize(kept);
  for (auto& [token, op] : void_ops) on_invoke(token, op);
  flush_deferred();
  maybe_chain();
}

// --- crash-recovery -----------------------------------------------------

void ModeSwitchingReplica::on_recover() {
  // Signals fired while down were skipped; the supervisor's current target
  // is the authority.  Member state (including link-layer sequence state)
  // survived, so no reset_link_state: peers' dedup history stays valid.
  if (monitor_) {
    latest_target_ = std::max(latest_target_, monitor_->target_era());
  }
  switch (phase_) {
    case Phase::kSync:
      // A pending downgrade drains the cut operation into the base -- the
      // zero-stall path.  Without one this is pause-resume (see header).
      maybe_chain();
      return;
    case Phase::kDraining: {
      // Volatile pieces of the drain: the report broadcast may have died
      // with the link timers, and the fallback timer certainly did.
      auto it = reports_.find(id());
      if (it != reports_.end()) {
        broadcast(make_msg<DrainReportPayload>(era_, it->second));
      }
      if (!base_proposed_) {
        set_timer(drain_fallback_delay(),
                  TimerTag{kDrainFallback, Timestamp{async_era_, id()}});
      }
      ensure_engine(async_era_).reawaken();
      return;
    }
    case Phase::kAsync:
      ensure_engine(async_era_).reawaken();
      maybe_chain();
      return;
    case Phase::kSealing:
      ensure_engine(async_era_).reawaken();
      return;
  }
}

// --- QuorumHost ---------------------------------------------------------

void ModeSwitchingReplica::quorum_send(std::int64_t tag, ProcessId to,
                                       const MessagePayload* payload) {
  raw_send(to, make_msg<QEraPayload>(static_cast<int>(tag), payload));
}

void ModeSwitchingReplica::quorum_set_timer(std::int64_t tag, Tick delta,
                                            std::int64_t cookie) {
  set_timer(delta,
            TimerTag{kQuorumTimer, Timestamp{cookie, static_cast<ProcessId>(tag)}});
}

}  // namespace linbound
