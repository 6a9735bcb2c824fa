#include "degrade/quorum_engine.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace linbound {

bool same_proposal(const QuorumValue& a, const QuorumValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case QuorumValueKind::kNoop:
      return false;
    case QuorumValueKind::kOp:
      return a.origin == b.origin && a.op_id == b.op_id;
    case QuorumValueKind::kBase:
    case QuorumValueKind::kSeal:
      return a.origin == b.origin;
  }
  return false;
}

QuorumEngine::QuorumEngine(QuorumHost& host, std::int64_t tag, ProcessId self,
                           int n, const SystemTiming& timing)
    : host_(host),
      tag_(tag),
      self_(self),
      n_(n),
      timing_(timing),
      rng_(Rng(kQuorumSeed)
               .split(static_cast<std::uint64_t>(self))
               .split(static_cast<std::uint64_t>(tag))) {
  if (n > kMaxProcesses) {
    throw std::invalid_argument(
        "QuorumEngine: at most 64 processes (promise/accept bitmasks)");
  }
}

void QuorumEngine::send_others(const MessagePayload* payload) {
  for (ProcessId to = 0; to < static_cast<ProcessId>(n_); ++to) {
    if (to == self_) continue;
    host_.quorum_send(tag_, to, payload);
  }
}

std::int64_t QuorumEngine::lowest_unchosen() const {
  std::int64_t slot = apply_next_;
  while (chosen_.find(slot) != nullptr) ++slot;
  return slot;
}

bool QuorumEngine::has_gap() const {
  if (chosen_.empty()) return false;
  return chosen_.max_key() >= apply_next_ &&
         chosen_.find(apply_next_) == nullptr;
}

void QuorumEngine::propose(QuorumValue value) {
  backlog_.push_back(std::move(value));
  maybe_start_next();
}

void QuorumEngine::abandon_kind(QuorumValueKind kind) {
  backlog_.erase(
      std::remove_if(
          backlog_.begin() + static_cast<std::ptrdiff_t>(backlog_head_),
          backlog_.end(),
          [kind](const QuorumValue& v) { return v.kind == kind; }),
      backlog_.end());
  if (driving_ && !driving_->noop_fill && driving_->value.kind == kind) {
    driving_.reset();
    ++retry_seq_;  // pending retry timer goes stale
    maybe_start_next();
  }
}

void QuorumEngine::reawaken() {
  if (driving_) {
    start_attempt(driving_->slot);
  } else {
    maybe_start_next();
  }
  gap_timer_armed_ = false;  // its timer died with the crash
  if (has_gap()) arm_gap_timer();
  auto* req = make_payload<QCatchupReqPayload>(apply_next_);
  send_others(req);
}

void QuorumEngine::maybe_start_next() {
  if (driving_) return;
  if (backlog_head_ < backlog_.size()) {
    driving_.emplace();
    driving_->value = std::move(backlog_[backlog_head_++]);
    if (backlog_head_ == backlog_.size()) {
      backlog_.clear();
      backlog_head_ = 0;
    }
    retry_wait_ = retry_initial();
    start_attempt(lowest_unchosen());
    return;
  }
  if (has_gap()) arm_gap_timer();
}

void QuorumEngine::arm_retry() {
  const Tick jitter = rng_.uniform_tick(0, timing_.d);
  host_.quorum_set_timer(tag_, retry_wait_ + jitter, ++retry_seq_);
}

void QuorumEngine::arm_gap_timer() {
  if (gap_timer_armed_) return;
  gap_timer_armed_ = true;
  host_.quorum_set_timer(tag_, 4 * timing_.d, kGapCookie);
}

void QuorumEngine::start_attempt(std::int64_t slot) {
  Driving& d = *driving_;
  d.slot = slot;
  d.ballot = Ballot{++round_, self_};
  d.phase2 = false;
  d.promises = 0;
  d.best_accepted_ballot.reset();
  d.accepteds = 0;
  arm_retry();
  // Self is an acceptor too; its promise is collected inline before the
  // prepare goes on the wire (collect_promise may already complete phase 1
  // when n == 1).
  accept_prepare(self_, d.slot, d.ballot);
  if (driving_ && driving_->slot == slot && !driving_->phase2) {
    auto* prep = make_payload<QPreparePayload>(slot, driving_->ballot);
    send_others(prep);
  }
}

void QuorumEngine::on_timer(std::int64_t cookie) {
  if (cookie == kGapCookie) {
    gap_timer_armed_ = false;
    if (!has_gap()) return;
    if (driving_) {
      // A live proposal will resolve the gap slot itself (it targets the
      // lowest unchosen slot); check again later.
      arm_gap_timer();
      return;
    }
    driving_.emplace();  // its value is a kNoop
    driving_->noop_fill = true;
    ++noop_fills_;
    retry_wait_ = retry_initial();
    start_attempt(apply_next_);
    return;
  }
  // Proposal retry: only the most recently armed timer counts.
  if (cookie != retry_seq_ || !driving_) return;
  ++retries_;
  retry_wait_ = std::min(2 * retry_wait_, 8 * timing_.d);
  start_attempt(driving_->slot);
}

bool QuorumEngine::on_message(ProcessId from, const MessagePayload& payload) {
  if (const auto* prep = payload_as<QPreparePayload>(payload)) {
    accept_prepare(from, prep->slot, prep->ballot);
    return true;
  }
  if (const auto* prom = payload_as<QPromisePayload>(payload)) {
    collect_promise(from, *prom);
    return true;
  }
  if (const auto* acc = payload_as<QAcceptPayload>(payload)) {
    accept_accept(from, acc->slot, acc->ballot, acc->value);
    return true;
  }
  if (const auto* accd = payload_as<QAcceptedPayload>(payload)) {
    collect_accepted(from, accd->slot, accd->ballot);
    return true;
  }
  if (const auto* nack = payload_as<QNackPayload>(payload)) {
    // Outballoted: remember the competing round so the next attempt (on
    // the jittered retry timer -- immediate re-prepare would duel) wins.
    round_ = std::max(round_, nack->promised.round);
    return true;
  }
  if (const auto* chosen = payload_as<QChosenPayload>(payload)) {
    on_chosen(chosen->slot, chosen->value);
    return true;
  }
  if (const auto* req = payload_as<QCatchupReqPayload>(payload)) {
    auto* reply = make_payload<QCatchupReplyPayload>();
    chosen_.for_each([&](std::int64_t slot, const QuorumValue& value) {
      if (slot < req->from_slot) return;
      reply->slots.push_back(slot);
      reply->values.push_back(value);
    });
    if (!reply->slots.empty()) host_.quorum_send(tag_, from, reply);
    return true;
  }
  if (const auto* reply = payload_as<QCatchupReplyPayload>(payload)) {
    for (std::size_t i = 0; i < reply->slots.size(); ++i) {
      on_chosen(reply->slots[i], reply->values[i]);
    }
    return true;
  }
  return false;
}

void QuorumEngine::accept_prepare(ProcessId from, std::int64_t slot,
                                  const Ballot& b) {
  AcceptorSlot& acc = acceptors_[slot];
  if (b < acc.promised) {
    if (from != self_) {
      host_.quorum_send(tag_, from,
                        make_payload<QNackPayload>(slot, acc.promised));
    }
    return;
  }
  acc.promised = b;
  if (from == self_) {
    collect_promise_parts(self_, slot, b, acc.accepted_ballot.has_value(),
                          acc.accepted_ballot.value_or(Ballot{}),
                          acc.accepted_value);
    return;
  }
  auto* prom = make_payload<QPromisePayload>(slot, b);
  if (acc.accepted_ballot) {
    prom->has_accepted = true;
    prom->accepted_ballot = *acc.accepted_ballot;
    prom->accepted_value = acc.accepted_value;
  }
  host_.quorum_send(tag_, from, prom);
}

void QuorumEngine::accept_accept(ProcessId from, std::int64_t slot,
                                 const Ballot& b, const QuorumValue& v) {
  AcceptorSlot& acc = acceptors_[slot];
  if (b < acc.promised) {
    if (from != self_) {
      host_.quorum_send(tag_, from,
                        make_payload<QNackPayload>(slot, acc.promised));
    }
    return;
  }
  acc.promised = b;
  acc.accepted_ballot = b;
  acc.accepted_value = v;
  if (from == self_) {
    collect_accepted(self_, slot, b);
    return;
  }
  host_.quorum_send(tag_, from, make_payload<QAcceptedPayload>(slot, b));
}

void QuorumEngine::collect_promise(ProcessId from, const QPromisePayload& p) {
  collect_promise_parts(from, p.slot, p.ballot, p.has_accepted,
                        p.accepted_ballot, p.accepted_value);
}

void QuorumEngine::collect_promise_parts(ProcessId from, std::int64_t slot,
                                         const Ballot& b, bool has_accepted,
                                         const Ballot& acc_b,
                                         const QuorumValue& acc_v) {
  if (!driving_ || driving_->phase2) return;
  Driving& d = *driving_;
  if (slot != d.slot || b != d.ballot) return;
  d.promises |= std::uint64_t{1} << from;
  if (has_accepted &&
      (!d.best_accepted_ballot || acc_b > *d.best_accepted_ballot)) {
    d.best_accepted_ballot = acc_b;
    d.best_accepted_value = acc_v;
  }
  if (std::popcount(d.promises) < majority()) return;
  // Phase 2: a previously accepted value must be recovered (it may already
  // be chosen somewhere we cannot see); otherwise drive our own.
  d.phase2 = true;
  if (d.best_accepted_ballot) {
    d.phase2_value = std::move(d.best_accepted_value);
  } else {
    d.phase2_value = d.value;
  }
  const std::int64_t drive_slot = d.slot;
  const Ballot drive_ballot = d.ballot;
  // Self-accept first (may complete the slot when n == 1).
  accept_accept(self_, drive_slot, drive_ballot, d.phase2_value);
  if (driving_ && driving_->slot == drive_slot &&
      driving_->ballot == drive_ballot) {
    auto* acc = make_payload<QAcceptPayload>(drive_slot, drive_ballot,
                                             driving_->phase2_value);
    send_others(acc);
  }
}

void QuorumEngine::collect_accepted(ProcessId from, std::int64_t slot,
                                    const Ballot& b) {
  if (!driving_ || !driving_->phase2) return;
  Driving& d = *driving_;
  if (slot != d.slot || b != d.ballot) return;
  d.accepteds |= std::uint64_t{1} << from;
  if (std::popcount(d.accepteds) < majority()) return;
  // Decided.  Tell everyone, then deliver locally (on_chosen also advances
  // or completes the driving proposal, which leaves phase2_value dead).
  QuorumValue decided = std::move(d.phase2_value);
  auto* chosen = make_payload<QChosenPayload>(slot, decided);
  send_others(chosen);
  on_chosen(slot, std::move(decided));
}

template <typename V>
void QuorumEngine::on_chosen(std::int64_t slot, V&& value) {
  if (chosen_.find(slot) != nullptr) {
    // Paxos guarantees any second decision for a slot is the same value.
    return;
  }
  const bool ours = driving_ && same_proposal(value, driving_->value);
  chosen_.insert_or_assign(slot, std::forward<V>(value));
  if (driving_) {
    Driving& d = *driving_;
    if (ours) {
      // Our value made it -- possibly driven by a peer that recovered it
      // from a half-accepted slot.  Done either way.
      driving_.reset();
      ++retry_seq_;
    } else if (slot == d.slot) {
      if (d.noop_fill) {
        // The filler's job was getting this slot decided; any value does.
        driving_.reset();
        ++retry_seq_;
      } else {
        // Lost the slot to a competing (or recovered) value: re-target the
        // next free slot immediately -- same value, fresh ballot.
        retry_wait_ = retry_initial();
        start_attempt(lowest_unchosen());
      }
    }
  }
  deliver_committed();
  if (!driving_) maybe_start_next();
  if (has_gap()) arm_gap_timer();
}

void QuorumEngine::deliver_committed() {
  while (true) {
    const QuorumValue* value = chosen_.find(apply_next_);
    if (value == nullptr) return;
    const std::int64_t slot = apply_next_;
    ++apply_next_;
    // The host may reenter propose()/abandon_kind() from this upcall.
    host_.quorum_committed(tag_, slot, *value);
  }
}

}  // namespace linbound
