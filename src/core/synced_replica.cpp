#include "core/synced_replica.h"

#include <stdexcept>

namespace linbound {

SyncedReplicaProcess::SyncedReplicaProcess(std::shared_ptr<const ObjectModel> model,
                                           AlgorithmDelays delays,
                                           Tick resync_period)
    : ReplicaProcess(std::move(model), delays), resync_period_(resync_period) {
  if (resync_period <= 0) throw std::invalid_argument("resync period must be > 0");
}

void SyncedReplicaProcess::on_start() {
  // First round immediately, then every resync_period of local time.
  begin_round();
}

void SyncedReplicaProcess::begin_round() {
  ++current_round_;
  broadcast(make_msg<SyncReadingPayload>(current_round_, algo_clock()));
  set_timer(resync_period_, TimerTag{kSyncTimer, {}});
}

void SyncedReplicaProcess::on_message(ProcessId from, const MessagePayload& payload) {
  if (const auto* sync = payload_as<SyncReadingPayload>(payload)) {
    RoundState& state = rounds_[sync->round];
    // Midpoint estimate of (sender's adjusted clock - mine), doubled so it
    // stays an exact integer: 2*est = 2*T_j + 2*d - u - 2*my_reading.
    state.doubled_sum +=
        2 * sync->reading + 2 * timing().d - timing().u - 2 * algo_clock();
    ++state.received;
    maybe_finish_round(sync->round);
    return;
  }
  ReplicaProcess::on_message(from, payload);
}

void SyncedReplicaProcess::maybe_finish_round(std::int64_t round) {
  auto it = rounds_.find(round);
  if (it == rounds_.end() || it->second.received < process_count() - 1) return;
  // Average over all n processes (own difference 0): doubled_sum / (2n),
  // rounded toward zero -- the slack term of synced_eps_bound covers it.
  const Tick delta = it->second.doubled_sum / (2 * process_count());
  adjustment_ += delta;
  rounds_.erase(it);
  ++rounds_completed_;
}

void SyncedReplicaProcess::on_timer(TimerId id, const TimerTag& tag) {
  if (tag.kind == kSyncTimer) {
    begin_round();
    return;
  }
  ReplicaProcess::on_timer(id, tag);
}

Tick synced_eps_bound(const SystemTiming& timing, int n, std::int64_t max_abs_ppm,
                      Tick resync_period) {
  const Tick post_sync = timing.u - timing.u / n;  // (1 - 1/n) u
  // Divergence between syncs: both clocks can drift apart at up to
  // 2*rho; the period itself is measured on a drifting clock and rounds
  // take up to d to complete, so pad the window by d.
  const Tick window = resync_period + timing.d;
  const Tick drift_apart = 2 * window * max_abs_ppm / 1'000'000 + 1;
  // Rounding slack: the averaged estimate floors once per round, the drift
  // floor loses up to a tick per reading, and estimates themselves carry
  // the +-u/2 already inside post_sync.
  const Tick slack = 4;
  return post_sync + drift_apart + slack;
}

}  // namespace linbound
