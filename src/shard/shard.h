// Multi-tenant sharded simulation: many independent shared objects, each a
// full replica group inside its own deterministic Simulator, advanced in
// parallel by a conservative-PDES window protocol.
//
// The paper's delay uncertainty is the key: no message is delivered before
// d - u, so that quantity is a sound conservative lookahead.  All shards
// advance their local event queues to a global horizon T + lookahead
// (Simulator::run_window), then barrier, exchange cross-shard clock-sync
// beacons whose send times fell inside the closed window, and open the next
// window.  Once the (finite, configuration-pure) beacon schedule is
// exhausted no cross-shard event can ever arrive again, so the remaining
// run is one terminal infinite window per shard -- embarrassingly parallel.
//
// The determinism contract (DESIGN.md section 14): for every shard, the
// trace produced by the parallel run is byte-identical -- hash_trace equal,
// and therefore serialization equal -- to running that shard alone through
// the *same* window sequence single-threaded (run_solo), at any --jobs
// count.  Three properties carry the proof:
//
//   1. shard isolation: each shard owns its Simulator, so the (time,
//      priority, push-seq) tie-break order that makes a trace is confined
//      to the shard; no other shard's progress can interleave pushes;
//   2. configuration-pure exchange: the beacon schedule (epochs, sources,
//      delays, receive times) is a pure function of ShardOptions -- never
//      of any shard's execution state -- drawn from SplitRng streams;
//   3. identical stepping: run() and run_solo() drive a shard through the
//      same sequence of run_window horizons and barrier injections, so its
//      queue sees the same pushes and pops in the same order.
//
// Injected faults (duplication, delay spikes, stalls, churn) only ever
// *widen* delivery envelopes upward, so the d - u lookahead stays sound
// under every fault config this runtime accepts; the barrier validates
// receive times against the open window's end and throws std::logic_error
// on any beacon that would violate the lookahead (the planted
// mutant_early_epoch_shard knob exercises exactly that guard).
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

struct ShardOptions {
  int shards = 8;
  /// Replicas per shard.  Process 0 of every shard is reserved for incoming
  /// clock-sync beacons; client invocations target processes 1..clients.
  int replicas = 4;
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
  std::size_t total_ops = 8192;
  double zipf_s = 0.9;  ///< zipfian popularity exponent (0 = uniform)
  /// Invoking processes per shard; 0 = replicas - 2 (leaving process 0 for
  /// beacons and at least one replica free for churn), minimum 1.
  int clients = 0;
  Tick start_time = 1000;
  /// Per-client inter-arrival floor; 0 = auto: the variant's worst-case
  /// response bound (d + eps stock, d_eff + eps hardened/recoverable) plus
  /// a 1000-tick margin, so open-loop arrivals never overlap a pending
  /// operation.
  Tick min_gap = 0;
  Tick jitter = 97;
  std::uint64_t seed = 0x5eed'ed0bULL;
  /// Per-shard event budget (each shard's SimConfig.max_events).  A shard
  /// that trips its own budget aborts alone -- RunStatus::kAborted with its
  /// shard id in the ShardResult -- without draining any other shard's.
  std::size_t max_events_per_shard = 10'000'000;
  /// Per-shard overrides of max_events_per_shard (tests plant a tiny budget
  /// on one shard to pin abort attribution); 0 or out-of-range = default.
  std::vector<std::size_t> shard_budget_override;
  /// Cross-shard clock-sync epochs: at E_k = start_time + k*sync_interval
  /// every shard's ring predecessor emits a beacon to it, delivered as a
  /// register read on process 0 after an admissible delay in [d-u, d].
  /// 0 epochs = no cross-shard traffic (pure terminal-window run).
  int sync_epochs = 4;
  /// Epoch spacing; 0 = auto: twice the effective min_gap (beacons on
  /// process 0 can never overlap their own response bound).
  Tick sync_interval = 0;
  /// Conservative lookahead; 0 = auto: timing.min_delay() = d - u.  Must
  /// not exceed the minimum cross-shard delay or construction throws.
  Tick lookahead = 0;

  // --- planted-mutant knobs (tests only) ---
  /// Shard whose epoch-0 beacon is delivered *before* the window ends,
  /// violating the conservative lookahead; the barrier validation must
  /// catch it (std::logic_error).  -1 = off.
  int mutant_early_epoch_shard = -1;
  /// Shard that receives one extra cross-shard operation in the parallel
  /// run only (not in run_solo), so its parallel hash must diverge from its
  /// single-threaded reference; the differential tests must catch it.
  /// -1 = off.
  int mutant_extra_op_shard = -1;

  /// Check each shard's history for linearizability *while it runs*: a
  /// per-shard StreamingChecker rides the shard's Simulator hooks (inline,
  /// jobs = 1 -- the PDES workers are the parallelism) and its final-window
  /// search runs right after the shard's terminal drain, on the same
  /// worker.  Observation only: hooks never touch the event schedule, so
  /// per-shard traces and hashes stay byte-identical to an unchecked run at
  /// every --jobs value.  Results land in ShardResult::check*.
  bool streaming_check = false;
  /// State budget per shard for the streaming check.  A shard that trips it
  /// reports check_error instead of aborting the whole run.
  CheckLimits streaming_check_limits;
};

/// Outcome of one shard's run, in canonical shard order.
struct ShardResult {
  int shard = -1;
  RunStatus status = RunStatus::kComplete;
  std::uint64_t trace_hash = 0;  ///< hash_trace of the shard's trace
  std::size_t events = 0;        ///< events processed by the shard's Simulator
  std::size_t ops = 0;           ///< trace ops (workload + received beacons)
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
  std::size_t windows = 0;          ///< conservative windows before terminal
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
  /// clients, min_gap, sync interval, per-shard loads, the full beacon
  /// schedule) are computed here, purely from `options`.
  /// Throws std::invalid_argument on rejected configurations (see
  /// ShardOptions::faults, u == d, too many clients, ...).
  explicit ShardedSimulation(ShardOptions options);
  ~ShardedSimulation();

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  const ShardOptions& options() const { return opt_; }
  Tick lookahead() const { return lookahead_; }
  Tick min_gap() const { return min_gap_; }
  Tick sync_interval() const { return sync_interval_; }
  int clients() const { return clients_; }
  /// Workload operations apportioned to each shard (zipfian_shard_loads).
  const std::vector<std::size_t>& loads() const { return loads_; }

  /// Run every shard through the window protocol on `jobs` workers
  /// (resolve_jobs semantics; <= 1 is serial).  Shard traces are retained
  /// for trace()/checking until the next run() or destruction.
  ShardRunReport run(int jobs);

  /// Single-threaded reference for one shard: the identical window/barrier
  /// sequence with every other shard absent.  Self-contained (builds its
  /// own state; does not disturb a previous run()'s traces), so references
  /// for different shards may themselves be computed concurrently.
  ShardResult run_solo(int shard) const;

  /// Shard `shard`'s trace from the last run().  Throws std::logic_error
  /// before any run().
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

  std::unique_ptr<ShardState> build_shard(int shard) const;
  /// Step `state` to `horizon`; marks it aborted if its budget trips.
  static void step_window(ShardState& state, Tick horizon);
  /// Drain `state` to quiescence (the terminal infinite window).
  static void run_terminal(ShardState& state);
  /// Run the streaming checker's final-window search and stash the verdict
  /// on the state (no-op unless streaming_check; a state-budget trip is
  /// recorded as check_error rather than thrown).
  static void finalize_check(ShardState& state);
  /// Deliver every not-yet-injected beacon for `state`'s shard whose send
  /// time fell inside the window that just closed at `horizon`, validating
  /// recv >= horizon.
  void inject_beacons(ShardState& state, Tick horizon) const;
  ShardResult finish_shard(const ShardState& state) const;
  /// Drive one already-built set of shard states through the whole
  /// protocol; the shared implementation behind run() and run_solo().
  /// `plant_extra` enables the mutant_extra_op_shard knob (run() only --
  /// references must not carry the planted divergence).
  ShardRunReport drive(std::vector<std::unique_ptr<ShardState>>& states,
                       int jobs, bool plant_extra) const;

  ShardOptions opt_;
  std::shared_ptr<const ObjectModel> model_;
  Tick lookahead_ = 0;
  Tick min_gap_ = 0;
  Tick sync_interval_ = 0;
  int clients_ = 0;
  Tick last_beacon_send_ = kNoTime;  ///< kNoTime when sync_epochs == 0
  std::vector<std::size_t> loads_;
  std::vector<std::vector<Beacon>> beacons_;  ///< per dst shard, epoch order
  std::vector<std::unique_ptr<ShardState>> states_;  ///< last run()'s shards
};

}  // namespace linbound
