// Fault scripts: the exact record of what the fault layer did to one run.
//
// A randomized FaultPolicy is reproducible from its seed, but a *seed* is a
// terrible artifact to minimize: flipping one decision means finding a new
// seed that happens to produce it.  A FaultScript instead captures every
// concrete per-send FaultDecision by its message sequence number, so a run
// can be replayed decision-for-decision -- and, crucially, *edited*: the
// delta-debugging shrinker (chaos/shrink.h) removes decisions one subset at
// a time, replaying each candidate, until the script is locally minimal.
//
// Replay fidelity: message ids are assigned in send order, and the fault
// layer is consulted exactly once per send, so feeding the recorded decision
// back at each msg_seq reproduces the original unfolding by induction --
// identical sends, identical ids, byte-identical trace.  Stall windows and
// churn are not per-send decisions; they replay from the run's FaultConfig
// (deterministic given the config), not from the script.
//
// Serialized as "faultscript v1", one line per non-default decision:
//
//   faultscript v1
//   decision <msg_seq> <drop 0|1> <extra_copies> <delay_boost>
//   end
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/fault_injection.h"

namespace linbound {

/// One recorded fault-layer decision, keyed by the per-run message id of
/// the send it applied to.
struct ScriptedDecision {
  std::int64_t msg_seq = -1;
  FaultDecision decision;

  bool operator==(const ScriptedDecision& other) const {
    return msg_seq == other.msg_seq && decision.drop == other.decision.drop &&
           decision.extra_copies == other.decision.extra_copies &&
           decision.delay_boost == other.decision.delay_boost;
  }
};

/// Every non-default decision of one run, in msg_seq order.
struct FaultScript {
  std::vector<ScriptedDecision> decisions;

  bool empty() const { return decisions.empty(); }
  std::size_t size() const { return decisions.size(); }
  bool operator==(const FaultScript& other) const {
    return decisions == other.decisions;
  }
};

/// Serialize / parse the "faultscript v1" format.  write_fault_script emits
/// the header and end marker, so scripts embed cleanly inside larger
/// documents (the chaos repro bundle); read_fault_script consumes exactly
/// through the end marker.
void write_fault_script(std::ostream& os, const FaultScript& script);
std::optional<FaultScript> read_fault_script(std::istream& is,
                                             std::string* error = nullptr);
std::optional<FaultScript> fault_script_from_string(const std::string& text,
                                                    std::string* error = nullptr);

/// Wraps a live policy and records every non-default decision it makes.
/// stalled_until passes through untouched (stalls are config-driven and
/// replay from the config, not the script).
class RecordingFaultPolicy final : public FaultPolicy {
 public:
  explicit RecordingFaultPolicy(std::shared_ptr<FaultPolicy> inner)
      : inner_(std::move(inner)) {}

  FaultDecision on_send(ProcessId from, ProcessId to, Tick send_time,
                        std::int64_t msg_seq) override;
  Tick stalled_until(ProcessId pid, Tick now) override;

  const FaultScript& script() const { return script_; }

 private:
  std::shared_ptr<FaultPolicy> inner_;
  FaultScript script_;
};

/// Replays a FaultScript: the recorded decision at each scripted msg_seq,
/// the default (no fault) everywhere else.  Decisions the shrinker removed
/// simply revert to "deliver normally".
class ScriptedFaultPolicy final : public FaultPolicy {
 public:
  explicit ScriptedFaultPolicy(FaultScript script);

  FaultDecision on_send(ProcessId from, ProcessId to, Tick send_time,
                        std::int64_t msg_seq) override;

 private:
  FaultScript script_;  ///< sorted by msg_seq for binary search
};

}  // namespace linbound
