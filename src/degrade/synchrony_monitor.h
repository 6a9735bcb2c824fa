// The synchrony supervisor: watches a running simulation for evidence that
// the paper's timing envelope is broken and tells mode-switching replicas
// (mode_switching_replica.h) when to change gears.
//
// The model promises every delivered message a delay in [d-u, d] and
// pairwise clock skew <= eps.  The monitor checks the observable half of
// that promise online: every d it scans the trace incrementally (each
// message record is examined O(1) times), flags deliveries outside the
// envelope and messages overdue past 2d (d plus a grace of d).  Clock skew
// is checked once, at arm(): offsets are static in this simulator, and a skew
// violation is *permanent* -- the monitor downgrades at the first poll and
// never upgrades.
//
// Mode changes use hysteresis so a single spike does not flap the system:
//   downgrade  -- violations since the last upgrade >= kDowngradeAfter
//                 (3), and at least the minimum dwell (kMinDwellD = 16d)
//                 since the last switch;
//   upgrade    -- no violation observed for the clean window
//                 (kCleanWindowD = 8d), and the minimum dwell.
// Every switch is recorded in the trace as a kModeDowngrade / kModeUpgrade
// fault event (magnitude = target era), so mode history is replayable and
// auditable like any other fault.
//
// The monitor is deliberately *not* a Process: it is the experimenter's
// oracle standing outside the system, like the chaos engine's adversaries.
// It schedules itself with Simulator::call_at -- which leaves no trace
// record -- and stops polling when the event queue drains, so a fault-free
// run with a monitor attached is byte-identical to one without.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/time.h"
#include "sim/simulator.h"

namespace linbound {

/// Implemented by replicas that can change mode.  Eras count switches:
/// even eras run the synchronous algorithm, odd eras the quorum backend;
/// `target_era` only ever grows.  Delivered synchronously from the
/// monitor's poll, outside any message or timer handler of the target.
class ModeSwitchTarget {
 public:
  virtual ~ModeSwitchTarget() = default;
  virtual void on_mode_signal(int target_era) = 0;
};

class SynchronyMonitor {
 public:
  /// Envelope violations observed since the last upgrade before a downgrade
  /// fires.
  static constexpr std::int64_t kDowngradeAfter = 3;
  /// Violation-free observation time before an upgrade, in units of d.  It
  /// must comfortably exceed the synchronous algorithm's holdback (u + eps)
  /// so stale pre-downgrade timers have all fired before a sync era
  /// restarts.
  static constexpr Tick kCleanWindowD = 8;
  /// Minimum time between switches (anti-flap), in units of d.
  static constexpr Tick kMinDwellD = 16;

  /// `sim` must outlive the monitor.  Envelope parameters are taken from
  /// sim.config().timing -- the model the run claims to satisfy.
  explicit SynchronyMonitor(Simulator& sim);

  /// Register `target` as the mode-switching replica behind `pid`; signals
  /// go out in pid order.  A target that is crashed when a switch fires is
  /// skipped -- it reads target_era() on recovery instead.
  void add_target(ProcessId pid, ModeSwitchTarget* target);

  /// Check static clock skew and schedule the first poll.  Call after every
  /// add_process / add_target, before Simulator::run.
  void arm();

  /// The era the system should be in (grows by one per recorded switch).
  int target_era() const { return target_era_; }

  // --- introspection (tests / harness) ---
  bool permanently_degraded() const { return permanent_; }
  std::int64_t violations() const { return violations_; }
  int downgrade_count() const { return downgrades_; }
  int upgrade_count() const { return upgrades_; }

 private:
  void poll();
  void scan_trace();
  /// Examine one delivered record: envelope check.
  void observe_delivery(const MessageRecord& rec);
  void note_violation(Tick when);
  void signal(int era, FaultKind kind);

  Simulator& sim_;
  SystemTiming timing_;

  std::vector<std::pair<ProcessId, ModeSwitchTarget*>> targets_;
  bool armed_ = false;
  bool permanent_ = false;

  /// trace().messages[0..scanned_) have been examined.
  std::size_t scanned_ = 0;
  /// Indices of scanned-but-undelivered messages still within their grace
  /// period; each leaves the list by delivery or by one overdue violation.
  std::vector<std::size_t> watch_;

  std::int64_t violations_ = 0;
  /// violations_ as of the last upgrade: downgrade evidence counts only
  /// violations observed since the system was last declared synchronous,
  /// or one healed storm would re-trigger on its own stale count forever.
  std::int64_t violations_mark_ = 0;
  Tick last_violation_time_ = kNoTime;
  Tick last_switch_time_ = kNoTime;
  int target_era_ = 0;
  int downgrades_ = 0;
  int upgrades_ = 0;
};

}  // namespace linbound
