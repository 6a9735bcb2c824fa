// Lundelius-Lynch clock synchronization -- the substrate Chapter V assumes.
//
// The paper's Algorithm 1 runs on clocks "synchronized to within the
// optimal eps = (1 - 1/n) u" and cites Lundelius & Lynch [6] for that
// optimum.  This module implements their averaging algorithm so the
// premise is itself reproducible:
//
//   * every process broadcasts its clock reading;
//   * a receiver estimates the sender's offset relative to itself assuming
//     the delay was d - u/2 (midpoint of [d-u, d]; each estimate is off by
//     at most u/2);
//   * after hearing from everyone, the process adjusts its clock by the
//     average of the n estimates (its own difference, 0, included).
//
// Worst-case skew of the adjusted clocks is (1 - 1/n) u, and no algorithm
// does better.  To keep the analysis exact in integer ticks, corrections
// are kept scaled by 2n (avoiding both the /2 of the midpoint and the /n of
// the average): adjusted clock (scaled) = 2n * (real + c_i) + 2 * sum_est,
// where sum_est is twice the sum of midpoint estimates.
#pragma once

#include <vector>

#include "sim/process.h"
#include "sim/simulator.h"

namespace linbound {

struct ClockReadingPayload final : TaggedPayload<ClockReadingPayload> {
  Tick sender_clock = 0;
  explicit ClockReadingPayload(Tick t) : sender_clock(t) {}
};

class LundeliusLynchProcess final : public Process {
 public:
  void on_start() override;
  void on_message(ProcessId from, const MessagePayload& payload) override;
  void on_invoke(std::int64_t token, const Operation& op) override;

  /// Sum over all other processes j of 2*(estimated clock_j - clock_i):
  /// est_j = (T_j + d - u/2) - local_receive_time, kept doubled so it is an
  /// exact integer.  Valid once done().
  Tick doubled_estimate_sum() const { return doubled_estimate_sum_; }

  bool done() const { return heard_from_ == process_count() - 1; }

 private:
  Tick doubled_estimate_sum_ = 0;
  int heard_from_ = 0;
};

/// Run the synchronization round over `n` processes with true offsets
/// `clock_offsets` and the given delay policy; returns the *scaled* adjusted
/// clock values A_i = 2n*c_i + 2*sum_est_i.  The achieved skew between i and
/// j is |A_i - A_j| / (2n) ticks; lundelius_lynch_worst_skew_scaled compares
/// against the optimum without any division.
std::vector<Tick> run_lundelius_lynch(const SystemTiming& timing,
                                      std::vector<Tick> clock_offsets,
                                      std::shared_ptr<DelayPolicy> delays);

/// max_{i,j} |A_i - A_j| from the scaled adjusted clocks.
Tick worst_skew_scaled(const std::vector<Tick>& scaled_adjusted);

/// The Lundelius-Lynch guarantee, in the same scale: (1 - 1/n) u ticks
/// scaled by 2n = 2 (n-1) u.
inline Tick optimal_skew_scaled(int n, const SystemTiming& timing) {
  return 2 * static_cast<Tick>(n - 1) * timing.u;
}

}  // namespace linbound
