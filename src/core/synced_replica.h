// Drift-managed Algorithm 1: periodic in-band Lundelius-Lynch
// resynchronization (the composition Chapter VII gestures at).
//
// With clock rates within +-rho and no correction, pairwise divergence
// grows without bound and no fixed-wait algorithm stays safe.  This
// subclass runs a Lundelius-Lynch averaging round every `resync_period`
// (on its own message type, interleaved with object traffic) and stamps
// operations with the *adjusted* clock
//     algo_clock() = local_time() + adjustment.
// Between two rounds the adjusted clocks diverge by at most the post-sync
// skew (1-1/n)u plus 2*rho*resync_period plus rounding slack, so running
// the algorithm at
//     eps_eff = (1-1/n)u + 2*rho*resync_period + slack
// (see synced_eps_bound) keeps it safe over an UNBOUNDED horizon -- unlike
// the fixed-horizon compensation of AlgorithmDelays::drift_compensated.
//
// A resynchronization may step the adjusted clock backwards; timestamps
// stay per-process unique through the base class's monotonic stamp guard.
#pragma once

#include <map>

#include "core/replica_algorithm.h"

namespace linbound {

/// The sync round message: the sender's adjusted clock reading.
struct SyncReadingPayload final : TaggedPayload<SyncReadingPayload> {
  std::int64_t round = 0;
  Tick reading = 0;
  SyncReadingPayload(std::int64_t r, Tick t) : round(r), reading(t) {}
};

class SyncedReplicaProcess final : public ReplicaProcess {
 public:
  SyncedReplicaProcess(std::shared_ptr<const ObjectModel> model,
                       AlgorithmDelays delays, Tick resync_period);

  void on_start() override;
  void on_message(ProcessId from, const MessagePayload& payload) override;
  void on_timer(TimerId id, const TimerTag& tag) override;

  /// Doubled-and-scaled adjustment applied so far (diagnostics).
  Tick adjustment() const { return adjustment_; }
  std::int64_t rounds_completed() const { return rounds_completed_; }

 protected:
  Tick algo_clock() const override { return local_time() + adjustment_; }

 private:
  static constexpr int kSyncTimer = 100;  // disjoint from the base kinds

  void begin_round();
  void maybe_finish_round(std::int64_t round);

  Tick resync_period_;
  Tick adjustment_ = 0;
  std::int64_t current_round_ = -1;
  std::int64_t rounds_completed_ = 0;
  /// round -> (doubled estimate sum, readings received)
  struct RoundState {
    Tick doubled_sum = 0;
    int received = 0;
  };
  std::map<std::int64_t, RoundState> rounds_;
};

/// The eps the synced deployment must be configured with: post-sync skew
/// (1-1/n)u, plus divergence accumulated over one resync period at rate
/// rho each way, plus integer-rounding slack for the averaging and the
/// drifting measurement of the period itself.
Tick synced_eps_bound(const SystemTiming& timing, int n, std::int64_t max_abs_ppm,
                      Tick resync_period);

}  // namespace linbound
