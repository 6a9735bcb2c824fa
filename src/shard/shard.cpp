#include "shard/shard.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "sim/delay_policy.h"
#include "sim/trace_io.h"
#include "types/register_type.h"

namespace linbound {
namespace {

// SplitRng stream ids of the sharded runtime.  Every random ingredient of a
// run is a pure function of (ShardOptions::seed, one of these, shard id),
// so adding shards, reordering construction or changing --jobs can never
// reshuffle another shard's draws.
constexpr std::uint64_t kLoadStream = 0x10adull;
constexpr std::uint64_t kBeaconStreamBase = 0xbea0'0000ull;
constexpr std::uint64_t kShardStreamBase = 0x51a2'd000'0000ull;
// Per-shard sub-streams (drawn from the shard's own SplitRng family).
constexpr std::uint64_t kDelayStream = 1;
constexpr std::uint64_t kFaultStream = 2;
constexpr std::uint64_t kWorkloadStream = 3;

}  // namespace

/// Everything one shard owns while its task runs: its replica group (inside
/// its own Simulator), its workload and its streaming checker.  run_shard
/// builds, steps and destroys it on one worker; only the trace outlives it.
struct ShardedSimulation::ShardState {
  std::unique_ptr<ReplicaSystem> system;
  std::unique_ptr<HeavyTrafficWorkload> workload;
  /// Streaming check riding the shard's hooks (ShardOptions::streaming_check),
  /// inline: the one worker that runs the shard is the only one to touch it.
  std::unique_ptr<StreamingChecker> checker;

  Simulator& sim() { return system->sim(); }
};

ShardedSimulation::ShardedSimulation(ShardOptions options)
    : opt_(std::move(options)), model_(std::make_shared<RegisterModel>()) {
  if (opt_.shards < 1) {
    throw std::invalid_argument("ShardedSimulation: need at least one shard");
  }
  if (!opt_.timing.valid()) {
    throw std::invalid_argument("ShardedSimulation: invalid SystemTiming");
  }
  if (opt_.sync_epochs < 0) {
    throw std::invalid_argument("ShardedSimulation: negative sync_epochs");
  }
  opt_.faults.validate();
  // Message loss strands open-loop operations: a dropped message the link
  // layer cannot recover leaves an operation pending forever, and the next
  // arrival on that client violates the one-pending-operation model.  The
  // closed-loop WorkloadDriver tolerates that; this runtime's open-loop
  // workload does not, so loss-type adversaries are rejected up front.
  if (opt_.faults.drop_p > 0 || !opt_.faults.partitions.empty()) {
    throw std::invalid_argument(
        "ShardedSimulation: message-loss faults (drop_p, partitions) are "
        "unsupported with the open-loop shard workload");
  }
  for (const LinkFault& link : opt_.faults.links) {
    if (link.drop_p > 0) {
      throw std::invalid_argument(
          "ShardedSimulation: per-link drops are unsupported with the "
          "open-loop shard workload");
    }
  }
  if (!opt_.faults.stalls.empty()) {
    throw std::invalid_argument(
        "ShardedSimulation: stall windows defer client steps past the "
        "open-loop gap; unsupported in the sharded runtime");
  }
  if (opt_.faults.churn.any() && opt_.variant != ShardVariant::kRecoverable) {
    // Churned processes must rejoin with the state-transfer protocol.
    opt_.variant = ShardVariant::kRecoverable;
  }

  // Worst-case response bound of the variant: the open-loop gap and the
  // beacon spacing are derived from it so no process ever has two
  // operations pending at once.  The link absorbs the config's worst delay
  // boost, as the run builder's links do (harness/experiment.h).
  HardenedParams hp;
  hp.spike_margin = opt_.faults.max_delay_boost();
  const Tick bound = opt_.variant == ShardVariant::kStock
                         ? opt_.timing.d + opt_.timing.eps
                         : hp.effective_d(opt_.timing) + opt_.timing.eps;
  min_gap_ = bound + 1000;

  if (lookahead() < 1) {
    throw std::invalid_argument(
        "ShardedSimulation: conservative lookahead requires d > u (a zero "
        "minimum delay admits same-instant cross-shard delivery)");
  }

  loads_ = zipfian_shard_loads(opt_.shards, opt_.total_ops, opt_.zipf_s,
                               SplitRng(opt_.seed).stream_seed(kLoadStream));

  // The full cross-shard beacon schedule, fixed here and never touched by
  // execution: at epoch time E_k each shard's ring predecessor sends it a
  // beacon, delivered after an admissible delay in [lookahead, d] drawn
  // from the (epoch, destination) stream.
  const SplitRng root(opt_.seed);
  beacons_.assign(static_cast<std::size_t>(opt_.shards), {});
  const Tick lookahead = this->lookahead();
  const Tick spread = opt_.timing.max_delay() - lookahead;
  for (int k = 0; k < opt_.sync_epochs; ++k) {
    const Tick send = HeavyTrafficOptions::kStartTime +
                      static_cast<Tick>(k) * sync_interval();
    for (int dst = 0; dst < opt_.shards; ++dst) {
      Rng draw = root.stream(kBeaconStreamBase +
                             static_cast<std::uint64_t>(k) *
                                 static_cast<std::uint64_t>(opt_.shards) +
                             static_cast<std::uint64_t>(dst));
      Tick delay = lookahead + (spread > 0 ? draw.uniform_tick(0, spread) : 0);
      if (k == 0 && dst == opt_.mutant_early_epoch_shard) {
        // Planted violation: delivered the instant it is sent, below every
        // possible lookahead -- the injection's validation must reject it.
        delay = 0;
      }
      beacons_[static_cast<std::size_t>(dst)].push_back(
          Beacon{k, dst, send, send + delay});
    }
    last_beacon_send_ = send;
  }
}

ShardedSimulation::ShardState ShardedSimulation::build_shard(int shard) const {
  ShardState state;
  const auto s = static_cast<std::size_t>(shard);
  // The shard's own stream family: a pure function of (seed, shard id).
  const SplitRng streams(SplitRng(opt_.seed).stream_seed(
      kShardStreamBase + static_cast<std::uint64_t>(shard)));

  SystemOptions so;
  so.n = ShardOptions::kReplicas;
  so.timing = opt_.timing;
  so.x = opt_.x;
  so.max_events = ShardOptions::kMaxEventsPerShard;
  if (s < opt_.shard_budget_override.size() && opt_.shard_budget_override[s]) {
    so.max_events = opt_.shard_budget_override[s];
  }
  so.delays = std::make_shared<UniformDelayPolicy>(
      opt_.timing, streams.stream_seed(kDelayStream));

  FaultConfig faults = opt_.faults;
  faults.seed = streams.stream_seed(kFaultStream);
  if (faults.any()) so.faults = make_fault_policy(faults);

  HardenedParams hp;
  hp.spike_margin = faults.max_delay_boost();
  if (opt_.variant == ShardVariant::kHardened) {
    so.hardened = hp;
  } else if (opt_.variant == ShardVariant::kRecoverable) {
    RecoverableParams rp;
    rp.link = hp;
    so.recoverable = rp;
  }

  state.system = std::make_unique<ReplicaSystem>(model_, so);
  // Per-shard pool sizing (sim/pool_set.h, applied through the workload's
  // arm() below plus the per-replica pending reserves here): each shard
  // worker owns warmed pools, so its steady-state window stepping does not
  // allocate -- and, more importantly under parallel drive, does not
  // contend on the global heap with other workers.  Every hint comes from
  // this shard's own schedule and variant (DESIGN.md section 15): a shard
  // of a few hundred operations pays for those, not for a solo-scale run.
  //
  // Pending entries per replica: one broadcast per client plus the
  // replica's own operation (process 0's is its beacon read).  A rejoining
  // recoverable replica re-feeds its snapshot's pending set and its
  // catch-up buffer on top, each up to one operation per client.
  const bool link = opt_.variant != ShardVariant::kStock;
  const std::size_t pending =
      (static_cast<std::size_t>(clients()) + 1) *
      (opt_.variant == ShardVariant::kRecoverable ? 2 : 1);
  for (int p = 0; p < ShardOptions::kReplicas; ++p) {
    state.system->replica(static_cast<ProcessId>(p)).reserve_pending(pending);
  }

  HeavyTrafficOptions w;
  w.clients = clients();
  w.first_client = 1;  // process 0 is the beacon target
  w.total_ops = loads_[s];
  w.min_gap = min_gap_;
  w.jitter = ShardOptions::kJitter;
  w.seed = streams.stream_seed(kWorkloadStream);
  w.batch = 1024;
  // Messages per op: a mutator's broadcast sends one copy per peer, and the
  // link acks each copy.  Accessors send nothing, so this bounds the op
  // pipeline (a churned replica's rejoin traffic comes on top).
  w.messages_per_op =
      (link ? 2 : 1) * (static_cast<std::size_t>(ShardOptions::kReplicas) - 1);
  // Arena volume per op: the broadcast payload plus (hardened/recoverable)
  // per-peer link frames, acks and destructor-list nodes.
  w.payload_bytes_per_op = link ? 512 : 128;
  // Armed timers per process: an execute timer per pending entry and the
  // own operation's timers; the link adds a retransmission timer per copy
  // awaiting its ack.
  w.timer_slots_per_process = (link ? 3 : 2) * pending;
  state.workload =
      std::make_unique<HeavyTrafficWorkload>(state.sim(), std::move(w));
  // Op log slots for the whole run: the workload slice plus one read per
  // received beacon, so the first beacon does not double the slot vector
  // and copy every slot (reserved before arm(), whose own hint is the
  // slice).
  // The queue's hint goes in here too, before churn windows and start()
  // push anything: the calendar picks its window at its first push.
  state.sim().reserve(loads_[s] + beacons_[s].size(), 0,
                       state.workload->event_hint());

  if (faults.churn.any()) {
    // Generate for the full group, then keep only processes that neither
    // receive beacons (process 0) nor invoke operations (1..clients): the
    // open-loop schedule cannot re-issue an operation a crash would cut.
    // Per-process streams (SplitRng) mean the filter leaves the surviving
    // processes' windows untouched.
    const ChurnSchedule full =
        make_churn_schedule(faults, ShardOptions::kReplicas);
    std::vector<ChurnWindow> kept;
    for (const ChurnWindow& win : full.windows()) {
      if (win.pid > clients()) kept.push_back(win);
    }
    ChurnSchedule(std::move(kept)).apply(state.sim());
  }

  if (opt_.streaming_check) {
    state.checker = std::make_unique<StreamingChecker>(*model_);
    state.checker->attach(state.sim());
  }

  state.sim().start();
  state.workload->arm();
  return state;
}

ShardResult ShardedSimulation::run_shard(int shard, bool plant_extra,
                                         Trace* keep) const {
  ShardState state = build_shard(shard);
  Simulator& sim = state.sim();
  const auto& schedule = beacons_[static_cast<std::size_t>(shard)];
  ShardResult r;
  r.shard = shard;
  bool aborted = false;
  for (std::size_t w = 1; w <= windows(); ++w) {
    const Tick horizon = static_cast<Tick>(w) * lookahead();
    // An aborted shard stops stepping: its budget tripped, and its trace
    // is frozen at the trip point.
    if (sim.run_window(horizon) == WindowOutcome::kBudget) {
      aborted = true;
      break;
    }
    // Deliver every beacon whose send time fell inside the window that
    // just closed.
    for (; r.beacons < schedule.size() && schedule[r.beacons].send < horizon;
         ++r.beacons) {
      const Beacon& b = schedule[r.beacons];
      if (b.recv < horizon) {
        // A beacon sent inside the window [horizon - lookahead, horizon)
        // that arrives before the horizon would have had to be processed
        // inside the very window that just ran without it -- the
        // conservative lookahead was violated and the trace can no longer
        // be trusted.
        throw std::logic_error(
            "ShardedSimulation: beacon for shard " + std::to_string(b.dst) +
            " epoch " + std::to_string(b.epoch) + " sent at " +
            std::to_string(b.send) + " arrives at " + std::to_string(b.recv) +
            " < window end " + std::to_string(horizon) +
            " -- cross-shard delay below the conservative lookahead");
      }
      sim.invoke_at(b.recv, /*pid=*/0, reg::read());
    }
    if (plant_extra && shard == opt_.mutant_extra_op_shard && w == 1) {
      // Planted divergence (run() only -- run_solo strips the knob): one
      // operation the reference never schedules, so this shard's hash must
      // differ from it.  Placed two epochs past the last beacon so it
      // cannot overlap a pending beacon on process 0.
      sim.invoke_at(last_beacon_send_ + 2 * sync_interval(), /*pid=*/0,
                    reg::read());
    }
  }
  // The terminal infinite window: no cross-shard input can arrive anymore,
  // so the shard drains to quiescence.  A false return is the event budget
  // tripping (Simulator::run contract).
  if (!aborted && !sim.run()) aborted = true;

  if (state.checker) {
    try {
      const CheckResult check = state.checker->finalize();
      r.checked = true;
      r.check_ok = check.ok;
      r.check_states = check.states_explored;
      r.check_segments = check.segments;
      r.check_max_resident = check.max_resident_states;
      r.check_max_window = state.checker->max_window_ops();
    } catch (const std::exception& e) {
      // A tripped state budget poisons this shard's verdict only; the run
      // (and every other shard's check) carries on.
      r.check_error = e.what();
    }
  }

  const Trace& trace = sim.trace();
  r.status = aborted ? RunStatus::kAborted
                     : (trace.complete() ? RunStatus::kComplete
                                         : RunStatus::kStalled);
  r.trace_hash = hash_trace(trace);
  r.events = sim.events_processed();
  r.ops = trace.ops.size();
  r.end_time = trace.end_time;
  if (keep) *keep = sim.release_trace();
  return r;
}

ShardRunReport ShardedSimulation::run(int jobs) {
  if (ran_) {
    throw std::logic_error(
        "ShardedSimulation::run is single-shot: build a new simulation for "
        "another run");
  }
  ran_ = true;
  std::vector<Trace> traces(static_cast<std::size_t>(opt_.shards));
  const ParallelSweepExecutor exec(resolve_jobs(jobs));
  // One task per shard, each writing only its own slots; the report is
  // aggregated serially in canonical shard order.
  ShardRunReport report;
  report.shards = exec.map<ShardResult>(traces.size(), [&](std::size_t i) {
    return run_shard(static_cast<int>(i), /*plant_extra=*/true, &traces[i]);
  });
  report.windows = windows();
  for (const ShardResult& r : report.shards) {
    report.beacons += r.beacons;
    report.total_events += r.events;
    report.total_ops += r.ops;
    if (r.status == RunStatus::kAborted) ++report.aborted;
    if (r.checked) {
      ++report.checked;
      if (!r.check_ok) ++report.check_failures;
    }
  }
  traces_ = std::move(traces);
  return report;
}

ShardResult ShardedSimulation::run_solo(int shard) const {
  if (shard < 0 || shard >= opt_.shards) {
    throw std::out_of_range("ShardedSimulation::run_solo: unknown shard");
  }
  // The reference run never carries the planted extra operation: that
  // divergence is exactly what references exist to expose.
  return run_shard(shard, /*plant_extra=*/false, /*keep=*/nullptr);
}

const Trace& ShardedSimulation::trace(int shard) const {
  if (traces_.empty()) {
    throw std::logic_error("ShardedSimulation::trace before run()");
  }
  if (shard < 0 || static_cast<std::size_t>(shard) >= traces_.size()) {
    throw std::out_of_range("ShardedSimulation::trace: unknown shard");
  }
  return traces_[static_cast<std::size_t>(shard)];
}

}  // namespace linbound
