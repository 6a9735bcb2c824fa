// Churn: seeded, deterministic crash/recover schedules.
//
// The fault policies of fault_policy.h break message-layer assumptions; a
// ChurnSchedule breaks the process-layer one -- failure-freedom -- in the
// *recoverable* direction Mostefaoui & Raynal study: processes crash, stay
// down for a while, and come back with empty volatile state, having to
// catch up (core/recoverable_replica.h) without disturbing the survivors'
// latency bounds.  Generation is a pure function of (config, n, seed): the
// same inputs produce the same windows, so a churned run is exactly as
// reproducible as a clean one.  A zero config produces no windows and
// leaves the run byte-identical to today's traces.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/time.h"

namespace linbound {

class Simulator;

/// One crash/recover interval: `pid` is down during [crash_time,
/// recover_time).  recover_time == kNoTime means the process never comes
/// back (a plain crash).
struct ChurnWindow {
  ProcessId pid = kNoProcess;
  Tick crash_time = kNoTime;
  Tick recover_time = kNoTime;
};

/// Knobs of the generator.  Durations are drawn uniformly from
/// [mean/2, 3*mean/2] (inclusive), per process, from independent split
/// streams -- adding a process does not reshuffle the others' schedules.
struct ChurnConfig {
  /// Mean uptime between recoveries and the next crash; 0 disables churn.
  Tick mean_uptime = 0;
  /// Mean downtime per crash; 0 disables churn.
  Tick mean_downtime = 0;
  /// No crash before this real time (let the system warm up).
  Tick start = 0;
  /// No crash at or after this real time (let the run drain).
  Tick horizon = 0;
  /// Cap on simultaneously-crashed processes.  Candidate windows that would
  /// exceed it are discarded (deterministically, in crash-time order); with
  /// the default 1 the rejoin protocol always finds a live peer holding the
  /// full executed prefix.
  int max_down = 1;

  bool any() const {
    return mean_uptime > 0 && mean_downtime > 0 && horizon > start;
  }
};

/// A generated schedule: windows sorted by (crash_time, pid).
class ChurnSchedule {
 public:
  ChurnSchedule() = default;
  explicit ChurnSchedule(std::vector<ChurnWindow> windows);

  /// Generate the schedule for `n` processes.  Deterministic from
  /// (config, n, seed).
  static ChurnSchedule generate(const ChurnConfig& config, int n,
                                std::uint64_t seed);

  const std::vector<ChurnWindow>& windows() const { return windows_; }
  bool empty() const { return windows_.empty(); }

  /// Processes with at least one window (the "churners"; everyone else is a
  /// survivor for the whole run).
  std::vector<ProcessId> churners() const;

  /// Arm every window on the simulator (crash_at + recover_at).  Call
  /// before Simulator::run.
  void apply(Simulator& sim) const;

 private:
  std::vector<ChurnWindow> windows_;
};

struct FaultConfig;  // fault_policy.h

/// Schedule for a FaultConfig with churn enabled: the churn stream is split
/// from config.seed with its own salt, disjoint from the drop/dup/spike
/// streams of make_fault_policy, so enabling churn does not reshuffle which
/// messages the other ingredients hit.
ChurnSchedule make_churn_schedule(const FaultConfig& config, int n);

}  // namespace linbound
