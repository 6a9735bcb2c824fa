// Builders for the graceful-degradation systems:
//
//   DegradeSystem (switching)  -- n ModeSwitchingReplicas wired to one
//     SynchronyMonitor.  Runs Algorithm 1 (hardened) while the timing
//     envelope holds; the monitor downgrades it to the quorum backend when
//     the envelope breaks and upgrades it back after a clean window.  A run
//     whose envelope never breaks is trace-byte-identical to a plain
//     hardened ReplicaSystem: the wrappers add no messages and the monitor
//     leaves no record.
//
//   DegradeSystem (quorum)  -- n QuorumReplicaProcesses: the asynchronous
//     backend alone, for validating and benchmarking it in isolation.
//
// See examples/quickstart.cpp for the ObjectSystem idiom; the mode-switch
// sweep harness (src/harness/mode_sweep.h) builds storms on top of this.
#pragma once

#include <memory>

#include "core/system.h"
#include "degrade/mode_switching_replica.h"
#include "degrade/quorum_replica.h"
#include "degrade/synchrony_monitor.h"

namespace linbound {

struct DegradeOptions {
  /// Base system shape: n, timing, delays, faults, clock offsets, caps.
  /// `hardened` supplies the link layer for the switching variant (defaults
  /// are filled in when unset); `algorithm_delays` and `recoverable` are
  /// meaningless here and rejected if set.
  SystemOptions base;
  /// true: supervisor (SynchronyMonitor) + mode-switching replicas.
  /// false: pure quorum backend (no monitor, no synchronous era at all).
  bool switching = true;
};

class DegradeSystem final : public ObjectSystem {
 public:
  DegradeSystem(std::shared_ptr<const ObjectModel> model,
                const DegradeOptions& options);

  bool switching() const { return monitor_ != nullptr; }

  /// The supervisor (switching variant only; null for pure quorum).
  const SynchronyMonitor* monitor() const { return monitor_.get(); }

  /// Algorithm 1 delays the switching replicas run in their sync eras.
  const AlgorithmDelays& algorithm_delays() const { return delays_; }

 private:
  AlgorithmDelays delays_{};
  std::unique_ptr<SynchronyMonitor> monitor_;
};

}  // namespace linbound
