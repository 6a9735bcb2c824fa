// Multi-tenant sharded simulation: many independent shared objects, each a
// full replica group inside its own deterministic Simulator, run in
// parallel one task per shard.
//
// The paper's delay uncertainty is the key: no message is delivered before
// d - u, so that quantity is a sound conservative lookahead.  A shard
// advances its event queue window by window to horizons k * lookahead
// (Simulator::run_window) and, after each window, receives the cross-shard
// clock-sync beacons whose send times fell inside it.  The beacon schedule
// is a pure function of ShardOptions, fixed in the constructor, so no
// shard's execution can change another shard's input and no shard waits
// for another: one task builds a shard, steps it through every window,
// drains it to quiescence once the schedule is exhausted (the terminal
// infinite window), finalizes its streaming check and keeps only its
// trace -- the rest of the shard dies on that same worker.
//
// The determinism contract (DESIGN.md section 14): for every shard, the
// trace produced by the parallel run is byte-identical -- hash_trace equal,
// and therefore serialization equal -- to running that shard alone
// (run_solo), at any --jobs count.  Three properties carry the proof:
//
//   1. shard isolation: each shard owns its Simulator, so the (time,
//      priority, push-seq) tie-break order that makes a trace is confined
//      to the shard; no other shard's progress can interleave pushes;
//   2. configuration-pure exchange: the beacon schedule (epochs, sources,
//      delays, receive times) is a pure function of ShardOptions -- never
//      of any shard's execution state -- drawn from SplitRng streams;
//   3. one function: run() and run_solo() both call run_shard, so a
//      parallel shard *is* its solo run.
//
// Injected faults (duplication, delay spikes, stalls, churn) only ever
// *widen* delivery envelopes upward, so the d - u lookahead stays sound
// under every fault config this runtime accepts; beacon injection
// validates receive times against the closed window's end and throws
// std::logic_error on any beacon that would violate the lookahead (the
// planted mutant_early_epoch_shard knob exercises exactly that guard).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker/streaming_checker.h"
#include "core/system.h"
#include "core/workload.h"
#include "fault/fault_policy.h"
#include "sim/simulator.h"

namespace linbound {

/// Which replica implementation each shard's group runs.
enum class ShardVariant {
  kStock,        ///< Algorithm 1 as in the paper (reliable network only)
  kHardened,     ///< loss/duplication-tolerant link (core/hardened_replica.h)
  kRecoverable,  ///< hardened link + crash-recovery rejoin protocol
};

const char* shard_variant_name(ShardVariant variant);

/// One sharded run.  The shard shape is fixed: kReplicas replicas per
/// shard, process 0 reserved for incoming clock-sync beacons, clients()
/// invoking processes 1..clients, and the rest free for churn.  Every
/// other value -- lookahead, open-loop gap, epoch spacing -- is derived
/// from these fields (see the ShardedSimulation accessors).
struct ShardOptions {
  /// Replicas per shard.
  static constexpr int kReplicas = 4;
  /// Extra uniform spacing in [0, kJitter] between a client's arrivals.
  static constexpr Tick kJitter = 97;
  /// Per-shard event budget (each shard's SimConfig.max_events).  A shard
  /// that trips its own budget aborts alone -- RunStatus::kAborted with its
  /// shard id in the ShardResult -- without draining any other shard's.
  static constexpr std::size_t kMaxEventsPerShard = 10'000'000;

  int shards = 8;
  SystemTiming timing;
  Tick x = 0;  ///< Algorithm 1 trade-off parameter
  ShardVariant variant = ShardVariant::kStock;
  /// Per-shard fault mix.  The seed field is ignored: every shard derives
  /// its own fault seed from `seed` below, so shard k's adversary is a pure
  /// function of (seed, k).  Message *loss* (drop_p, partitions, links) is
  /// rejected here: the open-loop workload cannot re-issue an operation a
  /// permanently-lost message would strand, and a stranded operation makes
  /// the next open-loop arrival on that client a model violation.  Churn
  /// requires (and auto-promotes to) the recoverable variant, and only
  /// touches processes that neither receive beacons nor invoke operations.
  FaultConfig faults;
  /// Operations across ALL shards, apportioned by zipfian_shard_loads.
  /// Each shard sizes its pools from its own share, not from this total.
  std::size_t total_ops = 8192;
  double zipf_s = 0.9;  ///< zipfian popularity exponent (0 = uniform)
  std::uint64_t seed = 0x5eed'ed0bULL;
  /// Per-shard overrides of kMaxEventsPerShard (tests plant a tiny budget
  /// on one shard to pin abort attribution); 0 or out-of-range = default.
  std::vector<std::size_t> shard_budget_override;
  /// Cross-shard clock-sync epochs: at E_k = HeavyTrafficOptions::kStartTime
  /// + k * sync_interval() every shard's ring predecessor emits a beacon to
  /// it, delivered as a register read on process 0 after an admissible
  /// delay in [d-u, d].  0 epochs = no cross-shard traffic (pure
  /// terminal-window run).
  int sync_epochs = 4;

  // --- planted-mutant knobs (tests only) ---
  /// Shard whose epoch-0 beacon is delivered *before* the window ends,
  /// violating the conservative lookahead; the injection's validation must
  /// catch it (std::logic_error).  -1 = off.
  int mutant_early_epoch_shard = -1;
  /// Shard that receives one extra cross-shard operation in the parallel
  /// run only (not in run_solo), so its parallel hash must diverge from its
  /// single-threaded reference; the differential tests must catch it.
  /// -1 = off.
  int mutant_extra_op_shard = -1;

  /// Check each shard's history for linearizability *while it runs*: a
  /// per-shard StreamingChecker rides the shard's Simulator hooks (inline:
  /// the shard tasks are the parallelism) and its final-window search
  /// runs right after the shard's terminal drain, on the same worker.
  /// Observation only: hooks never touch the event schedule, so per-shard
  /// traces and hashes stay byte-identical to an unchecked run at every
  /// --jobs value.  Results land in ShardResult::check*.  Each shard
  /// checks under the default CheckLimits; a shard that trips the state
  /// budget reports check_error instead of aborting the whole run.
  bool streaming_check = false;
};

/// Outcome of one shard's run, in canonical shard order.
struct ShardResult {
  int shard = -1;
  RunStatus status = RunStatus::kComplete;
  std::uint64_t trace_hash = 0;  ///< hash_trace of the shard's trace
  std::size_t events = 0;        ///< events processed by the shard's Simulator
  std::size_t ops = 0;           ///< trace ops (workload + received beacons)
  std::size_t beacons = 0;       ///< cross-shard beacons received
  Tick end_time = 0;             ///< trace end time

  // --- streaming check (ShardOptions::streaming_check only) ---
  bool checked = false;   ///< a streaming verdict was produced
  bool check_ok = false;  ///< the shard's history is linearizable
  std::size_t check_states = 0;        ///< CheckResult::states_explored
  std::size_t check_segments = 0;      ///< confirmed cuts + 1
  std::size_t check_max_resident = 0;  ///< CheckResult::max_resident_states
  std::size_t check_max_window = 0;    ///< StreamingChecker::max_window_ops
  /// Non-empty when the check itself failed (state budget); checked stays
  /// false then.
  std::string check_error;
};

struct ShardRunReport {
  std::vector<ShardResult> shards;  ///< canonical order, size == options.shards
  std::size_t windows = 0;          ///< each shard's windows before terminal
  std::size_t beacons = 0;          ///< cross-shard beacons delivered
  std::size_t total_events = 0;
  std::size_t total_ops = 0;
  /// Always 0 (delivery is per message); read only by perfbench/harness.cpp.
  std::uint64_t deliver_batches = 0;
  /// Always 0 (delivery is per message); read only by perfbench/harness.cpp.
  std::uint64_t batched_messages = 0;
  int aborted = 0;                  ///< shards that ended kAborted
  int checked = 0;                  ///< shards with a streaming verdict
  int check_failures = 0;           ///< shards whose verdict was "not linearizable"
};

class ShardedSimulation {
 public:
  /// Validates and freezes the configuration: derived values (lookahead,
  /// min_gap, sync interval, per-shard loads, the full beacon schedule) are
  /// computed here, purely from `options`.  Throws std::invalid_argument on
  /// rejected configurations (see ShardOptions::faults, u == d, ...).
  explicit ShardedSimulation(ShardOptions options);

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  const ShardOptions& options() const { return opt_; }
  /// Conservative lookahead: the minimum delay d - u.
  Tick lookahead() const { return opt_.timing.min_delay(); }
  /// Per-client inter-arrival floor: the variant's worst-case response
  /// bound (d + eps stock, d_eff + eps hardened/recoverable) plus a
  /// 1000-tick margin, so open-loop arrivals never overlap a pending
  /// operation.
  Tick min_gap() const { return min_gap_; }
  /// Epoch spacing: twice min_gap(), so beacons on process 0 never overlap
  /// their own response bound.
  Tick sync_interval() const { return 2 * min_gap_; }
  /// Invoking processes per shard: kReplicas - 2, leaving process 0 for
  /// beacons and one replica free for churn.
  static constexpr int clients() { return ShardOptions::kReplicas - 2; }
  /// Workload operations apportioned to each shard (zipfian_shard_loads).
  const std::vector<std::size_t>& loads() const { return loads_; }

  /// Run every shard, one task each, on `jobs` workers (resolve_jobs
  /// semantics; <= 1 is serial).  Each task tears its shard down when it
  /// finishes; only the shard traces are retained, for trace(), until
  /// destruction.  Single-shot: a second call throws std::logic_error --
  /// build a fresh simulation per run, so no run holds or tears down
  /// another run's shards.
  ShardRunReport run(int jobs);

  /// Single-threaded reference for one shard: the very function run()
  /// calls per shard, without the planted extra operation.  Self-contained
  /// (builds its own state; does not disturb run()'s traces), so references
  /// for different shards may themselves be computed concurrently.
  ShardResult run_solo(int shard) const;

  /// Shard `shard`'s trace from run().  Throws std::logic_error before
  /// run().
  const Trace& trace(int shard) const;

  /// The object model shards run (a register; shared, stateless spec).
  const ObjectModel& model() const { return *model_; }
  std::shared_ptr<const ObjectModel> model_ptr() const { return model_; }

 private:
  struct Beacon {
    int epoch = 0;
    int dst = 0;
    Tick send = 0;
    Tick recv = 0;
  };
  struct ShardState;

  /// Build and arm one shard: its group, churn and workload slice, with
  /// every pool sized from the shard's own load, beacons and variant
  /// (DESIGN.md section 15, per-shard sizing rule).  Called inside the
  /// shard's task, so building is part of a run and parallel like it.
  ShardState build_shard(int shard) const;
  /// One shard's whole run, the one function behind run() and run_solo():
  /// build it, step it through windows() windows injecting its beacons
  /// after each, drain it, finalize its streaming check and report.  The
  /// trace moves into `*keep` when non-null; everything else dies here.
  /// A state-budget trip becomes check_error rather than a throw.
  /// `plant_extra` enables the mutant_extra_op_shard knob (run() only --
  /// references must not carry the planted divergence).
  ShardResult run_shard(int shard, bool plant_extra, Trace* keep) const;
  /// Conservative windows each shard steps before its terminal drain: up
  /// to the first horizon past the last beacon send (0 without epochs).
  std::size_t windows() const {
    return opt_.sync_epochs > 0
               ? static_cast<std::size_t>(last_beacon_send_ / lookahead()) + 1
               : 0;
  }

  ShardOptions opt_;
  std::shared_ptr<const ObjectModel> model_;
  Tick min_gap_ = 0;
  Tick last_beacon_send_ = kNoTime;  ///< kNoTime when sync_epochs == 0
  std::vector<std::size_t> loads_;
  std::vector<std::vector<Beacon>> beacons_;  ///< per dst shard, epoch order
  std::vector<Trace> traces_;  ///< run()'s shard traces
  bool ran_ = false;  ///< run() was called (it is single-shot)
};

}  // namespace linbound
