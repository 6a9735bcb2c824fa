// Concrete fault policies: the adversaries beyond the paper's model.
//
// Each policy is deterministic from its seed (one RNG draw sequence,
// consumed in the simulator's deterministic send order), so a faulty run is
// exactly as reproducible as a clean one: identical configuration + seed
// implies an identical trace, fault events included.  Compose policies with
// ComposedFaultPolicy or build the usual drop/dup/spike/stall mix in one
// step from a FaultConfig.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "fault/churn.h"
#include "sim/fault_injection.h"

namespace linbound {

/// Throw std::invalid_argument unless `p` is a probability in [0, 1].
/// `what` names the offending parameter in the message.  Every policy
/// constructor and FaultConfig::validate() funnel through this, so a typo'd
/// 1.5 or a negated probability fails loudly at construction instead of
/// silently always (or never) firing.
void check_probability(double p, const char* what);

/// Throw std::invalid_argument unless `t >= 0`; `what` names the parameter.
void check_non_negative(Tick t, const char* what);

/// Bernoulli message loss: each send is dropped with probability `p`.
class DropFaultPolicy final : public FaultPolicy {
 public:
  DropFaultPolicy(double p, std::uint64_t seed) : p_(p), rng_(seed) {
    check_probability(p, "DropFaultPolicy drop probability");
  }

  FaultDecision on_send(ProcessId, ProcessId, Tick, std::int64_t) override {
    FaultDecision out;
    out.drop = rng_.chance(p_);
    return out;
  }

 private:
  double p_;
  Rng rng_;
};

/// Bernoulli duplication: each send spawns `copies` extra deliveries with
/// probability `p`.
class DuplicateFaultPolicy final : public FaultPolicy {
 public:
  DuplicateFaultPolicy(double p, std::uint64_t seed, int copies = 1)
      : p_(p), copies_(copies), rng_(seed) {
    check_probability(p, "DuplicateFaultPolicy duplication probability");
    if (copies < 0) {
      throw std::invalid_argument(
          "DuplicateFaultPolicy copies must be >= 0, got " +
          std::to_string(copies));
    }
  }

  FaultDecision on_send(ProcessId, ProcessId, Tick, std::int64_t) override {
    FaultDecision out;
    if (rng_.chance(p_)) out.extra_copies = copies_;
    return out;
  }

 private:
  double p_;
  int copies_;
  Rng rng_;
};

/// Bernoulli delay spikes: with probability `p` a send takes an extra
/// uniform boost in [1, max_boost] on top of the DelayPolicy's delay --
/// typically pushing it beyond the model's upper bound d.
class DelaySpikeFaultPolicy final : public FaultPolicy {
 public:
  DelaySpikeFaultPolicy(double p, Tick max_boost, std::uint64_t seed)
      : p_(p), max_boost_(max_boost), rng_(seed) {
    check_probability(p, "DelaySpikeFaultPolicy spike probability");
    check_non_negative(max_boost, "DelaySpikeFaultPolicy max boost");
  }

  FaultDecision on_send(ProcessId, ProcessId, Tick, std::int64_t) override {
    FaultDecision out;
    if (max_boost_ > 0 && rng_.chance(p_)) {
      out.delay_boost = rng_.uniform_tick(1, max_boost_);
    }
    return out;
  }

 private:
  double p_;
  Tick max_boost_;
  Rng rng_;
};

/// A scripted process stall: while real time is in [from, until) the process
/// takes no steps; its deliveries, timers and invocations are deferred to
/// `until` (a GC pause / scheduler preemption, not a crash).
struct StallWindow {
  ProcessId pid = kNoProcess;
  Tick from = 0;
  Tick until = 0;

  bool covers(ProcessId p, Tick t) const {
    return p == pid && t >= from && t < until;
  }

  /// Throws std::invalid_argument on a negative or inverted window or an
  /// unset process id.
  void validate() const;
};

/// Deterministic stall schedule built from explicit windows.
class StallFaultPolicy final : public FaultPolicy {
 public:
  explicit StallFaultPolicy(std::vector<StallWindow> windows)
      : windows_(std::move(windows)) {
    for (const StallWindow& w : windows_) w.validate();
  }

  FaultDecision on_send(ProcessId, ProcessId, Tick, std::int64_t) override {
    return {};
  }

  Tick stalled_until(ProcessId pid, Tick now) override {
    Tick until = kNoTime;
    for (const StallWindow& w : windows_) {
      if (w.covers(pid, now) && (until == kNoTime || w.until > until)) {
        until = w.until;
      }
    }
    return until;
  }

 private:
  std::vector<StallWindow> windows_;
};

/// A network partition: while real time is in [from, until) the replica
/// group is split into components, and every message crossing a component
/// boundary is dropped (the simulator records the usual kMessageDropped
/// fault event).  At `until` the partition heals implicitly -- nothing that
/// was eaten comes back, but new sends (and retransmissions) flow again.
/// `component_of[pid]` names pid's side; processes beyond the vector's end
/// sit in component 0, so a vector like {0, 1, 1} splits {p0} from
/// {p1, p2} and leaves any higher-numbered process with p0.
struct PartitionWindow {
  Tick from = 0;
  Tick until = 0;
  std::vector<int> component_of;

  bool covers(Tick t) const { return t >= from && t < until; }

  int component(ProcessId pid) const {
    const auto idx = static_cast<std::size_t>(pid);
    return idx < component_of.size() ? component_of[idx] : 0;
  }

  /// Does this window cut the directed link a -> b at time `t`?
  bool separates(ProcessId a, ProcessId b, Tick t) const {
    return covers(t) && component(a) != component(b);
  }

  /// Throws std::invalid_argument on a negative/inverted window or a
  /// negative component id.
  void validate() const;
};

/// Scripted partition schedule: drop every send that crosses an active
/// window's component boundary.  Purely deterministic (no RNG): the windows
/// are the whole adversary, which is what makes partitions shrink-friendly
/// for the chaos engine (src/chaos).
class PartitionFaultPolicy final : public FaultPolicy {
 public:
  explicit PartitionFaultPolicy(std::vector<PartitionWindow> windows)
      : windows_(std::move(windows)) {
    for (const PartitionWindow& w : windows_) w.validate();
  }

  FaultDecision on_send(ProcessId from, ProcessId to, Tick send_time,
                        std::int64_t) override {
    FaultDecision out;
    for (const PartitionWindow& w : windows_) {
      if (w.separates(from, to, send_time)) {
        out.drop = true;
        break;
      }
    }
    return out;
  }

 private:
  std::vector<PartitionWindow> windows_;
};

/// Asymmetric per-link adversary: Bernoulli loss and delay jitter applied
/// only to the directed link `from -> to` (the reverse direction is
/// untouched unless configured separately).  A link listed twice compounds.
struct LinkFault {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  double drop_p = 0.0;
  double delay_p = 0.0;
  Tick delay_max = 0;  ///< boosts are uniform in [1, delay_max]

  /// Throws std::invalid_argument on unset endpoints, probabilities outside
  /// [0, 1] or a negative delay bound.
  void validate() const;
};

/// Per-link drop/delay streams.  Each configured entry draws from its own
/// split stream salted by the directed pair, so editing one link's
/// parameters never reshuffles another link's draws.
class LinkFaultPolicy final : public FaultPolicy {
 public:
  LinkFaultPolicy(std::vector<LinkFault> links, std::uint64_t seed);

  FaultDecision on_send(ProcessId from, ProcessId to, Tick send_time,
                        std::int64_t msg_seq) override;

 private:
  std::vector<LinkFault> links_;
  std::vector<Rng> rngs_;  ///< parallel to links_
};

/// Applies every child policy to each send: drops are OR-ed, extra copies
/// and delay boosts summed, stall windows merged (latest end wins).
class ComposedFaultPolicy final : public FaultPolicy {
 public:
  explicit ComposedFaultPolicy(
      std::vector<std::shared_ptr<FaultPolicy>> children)
      : children_(std::move(children)) {}

  FaultDecision on_send(ProcessId from, ProcessId to, Tick send_time,
                        std::int64_t msg_seq) override;
  Tick stalled_until(ProcessId pid, Tick now) override;

 private:
  std::vector<std::shared_ptr<FaultPolicy>> children_;
};

/// The usual mix in one struct, for sweeps and tests.  All probabilities
/// default to zero; a zero config still builds a (vacuous) policy whose
/// runs are identical to no policy at all.
struct FaultConfig {
  double drop_p = 0.0;
  double dup_p = 0.0;
  int dup_copies = 1;
  double spike_p = 0.0;
  Tick spike_max = 0;
  std::vector<StallWindow> stalls;
  /// Scripted partition windows (components split, then heal).
  std::vector<PartitionWindow> partitions;
  /// Asymmetric per-link drop/delay adversaries.
  std::vector<LinkFault> links;
  /// Crash/recover schedule parameters (fault/churn.h).  Not part of any():
  /// churn is a process-layer fault, materialized separately via
  /// make_churn_schedule and ChurnSchedule::apply, not by make_fault_policy.
  ChurnConfig churn;
  std::uint64_t seed = 0;

  bool any() const {
    return drop_p > 0 || dup_p > 0 || (spike_p > 0 && spike_max > 0) ||
           !stalls.empty() || !partitions.empty() || !links.empty();
  }

  /// The worst one-way delay boost the config can inject: spike_max or the
  /// largest per-link delay_max.  A hardened link's spike margin.
  Tick max_delay_boost() const;

  /// Reject out-of-range parameters with messages naming the field:
  /// probabilities outside [0, 1], negative boosts/copies, inverted stall or
  /// partition windows, negative churn durations.  make_fault_policy and
  /// make_churn_schedule call this; call it directly to fail fast on
  /// hand-built configs.
  void validate() const;
};

/// Build the composed policy for a config.  Each ingredient gets an
/// independent RNG stream split from `config.seed`, so e.g. raising drop_p
/// does not reshuffle which messages get duplicated.  Validates the config
/// (std::invalid_argument on out-of-range parameters).
std::shared_ptr<FaultPolicy> make_fault_policy(const FaultConfig& config);

}  // namespace linbound
