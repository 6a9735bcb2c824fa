#include "core/hardened_replica.h"

#include <algorithm>
#include <stdexcept>

namespace linbound {

Tick HardenedParams::first_timeout_for(const SystemTiming& timing) const {
  // A round trip (data out, ack back) takes at most 2(d + spike_margin);
  // only after that can the first attempt be declared lost.
  return 2 * (timing.d + spike_margin) + 1;
}

Tick HardenedParams::step_cap_for(const SystemTiming& timing) const {
  return 8 * timing.d;
}

Tick HardenedParams::effective_d(const SystemTiming& timing) const {
  if (!valid()) throw std::invalid_argument("invalid HardenedParams");
  const Tick cap = step_cap_for(timing);
  Tick step = std::min(first_timeout_for(timing), cap);
  Tick total = timing.d + spike_margin;  // last attempt's one-way flight
  for (int k = 0; k + 1 < max_attempts; ++k) {
    // Each retransmission wait may be stretched by up to retrans_jitter.
    total += step + retrans_jitter;
    step = std::min(step * kBackoff, cap);
  }
  return total;
}

SystemTiming HardenedParams::effective_timing(const SystemTiming& timing) const {
  SystemTiming out = timing;
  out.d = effective_d(timing);
  out.u = out.d - timing.min_delay();
  return out;
}

HardenedReplicaProcess::HardenedReplicaProcess(
    std::shared_ptr<const ObjectModel> model, AlgorithmDelays delays,
    HardenedParams params)
    : ReplicaProcess(std::move(model), delays), params_(params) {
  if (!params_.valid()) throw std::invalid_argument("invalid HardenedParams");
}

void HardenedReplicaProcess::send(ProcessId to, const MessagePayload* payload) {
  const auto dest = static_cast<std::size_t>(to);
  if (dest >= next_link_seq_.size()) next_link_seq_.resize(dest + 1, 0);
  const std::int64_t seq = next_link_seq_[dest]++;
  const LinkDataPayload* frame =
      make_msg<LinkDataPayload>(seq, payload, my_incarnation_);
  PendingSend pending;
  pending.frame = frame;
  pending.to = to;
  pending.attempts = 1;
  pending.next_timeout =
      std::min(params_.first_timeout_for(timing()), params_.step_cap_for(timing()));
  raw_send(to, frame);
  const Tick first_timeout = pending.next_timeout;
  pending_sends_.insert_or_assign(link_key(to, seq), std::move(pending));
  // Timer keyed by <seq, destination> through the standard tag.
  set_timer(first_timeout, TimerTag{kLinkRetransmit, Timestamp{seq, to}});
}

void HardenedReplicaProcess::on_message(ProcessId from,
                                        const MessagePayload& payload) {
  if (const auto* ack = payload_as<LinkAckPayload>(payload)) {
    // Acks addressed to a previous life are stale: this incarnation may be
    // reusing the acked sequence number for a different message.
    if (ack->incarnation != my_incarnation_) return;
    // Sequence numbers are per destination, so the acked send is keyed by
    // the acking peer; duplicate acks fall through harmlessly.
    pending_sends_.erase(link_key(from, ack->seq));
    return;
  }
  if (const auto* frame = payload_as<LinkDataPayload>(payload)) {
    // Always (re-)ack: the sender may be retransmitting because our
    // previous ack was lost.  Acks go out raw -- acking an ack would loop.
    raw_send(from, make_msg<LinkAckPayload>(frame->seq, frame->incarnation));
    if (!delivered_.insert(from, frame->incarnation, frame->seq)) {
      ++duplicates_suppressed_;
      return;
    }
    deliver_app(from, *frame->inner);
    return;
  }
  // Unframed payload (e.g. from a non-hardened peer in a mixed system).
  deliver_app(from, payload);
}

void HardenedReplicaProcess::on_timer(TimerId id, const TimerTag& tag) {
  if (tag.kind != kLinkRetransmit) {
    ReplicaProcess::on_timer(id, tag);
    return;
  }
  const std::int64_t seq = tag.ts.clock_time;
  const std::int64_t key = link_key(tag.ts.pid, seq);
  PendingSend* found = pending_sends_.find(key);
  if (found == nullptr) return;  // acked in the meantime
  PendingSend& pending = *found;
  if (pending.attempts >= params_.max_attempts) {
    // Attempt budget exhausted: the destination is unreachable (crashed, or
    // the network lost every copy).  Degrade gracefully -- stop resending
    // so the run quiesces; the assumption monitor attributes the fallout.
    ++link_give_ups_;
    pending_sends_.erase(key);
    return;
  }
  ++pending.attempts;
  ++retransmissions_;
  raw_send(pending.to, pending.frame);
  const Tick cap = params_.step_cap_for(timing());
  pending.next_timeout =
      std::min(pending.next_timeout * HardenedParams::kBackoff, cap);
  // Deterministic desynchronization: stretch this wait by a per-process
  // draw so concurrent losers do not retransmit in lockstep.  The stored
  // next_timeout stays unjittered -- the backoff ladder (and effective_d's
  // accounting of it) is unchanged; jitter only shifts firing times.
  Tick jitter = 0;
  if (params_.retrans_jitter > 0) {
    if (!jitter_rng_) jitter_rng_ = Rng(HardenedParams::kJitterSeed).split(
        static_cast<std::uint64_t>(this->id()));
    jitter = jitter_rng_->uniform_tick(0, params_.retrans_jitter);
  }
  set_timer(pending.next_timeout + jitter, tag);
}

void HardenedReplicaProcess::reset_link_state(Tick new_incarnation) {
  if (new_incarnation <= my_incarnation_) {
    throw std::invalid_argument(
        "reset_link_state: incarnation must be strictly increasing");
  }
  pending_sends_.clear();
  delivered_.clear();
  next_link_seq_.assign(next_link_seq_.size(), 0);
  my_incarnation_ = new_incarnation;
}

}  // namespace linbound
