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

const char* shard_variant_name(ShardVariant variant) {
  switch (variant) {
    case ShardVariant::kStock:
      return "stock";
    case ShardVariant::kHardened:
      return "hardened";
    case ShardVariant::kRecoverable:
      return "recoverable";
  }
  return "?";
}

/// Everything one shard owns: its replica group (inside its own Simulator),
/// its workload, its churn schedule and its barrier-protocol cursor.
struct ShardedSimulation::ShardState {
  int shard = -1;
  std::unique_ptr<ReplicaSystem> system;
  std::unique_ptr<HeavyTrafficWorkload> workload;
  ChurnSchedule churn;
  std::size_t next_beacon = 0;
  std::size_t beacons_received = 0;
  bool aborted = false;
  /// Streaming check riding the shard's hooks (ShardOptions::streaming_check).
  /// Inline (jobs = 1): the checker advances on whichever PDES worker steps
  /// the shard's window; the inter-window barriers order those accesses, so
  /// the single-threaded checker core never runs concurrently with itself.
  std::unique_ptr<StreamingChecker> checker;
  CheckResult check_result;
  std::size_t check_max_window = 0;
  bool check_done = false;
  std::string check_error;

  Simulator& sim() { return system->sim(); }
  const Simulator& sim() const { return system->sim(); }
};

ShardedSimulation::ShardedSimulation(ShardOptions options)
    : opt_(std::move(options)), model_(std::make_shared<RegisterModel>()) {
  if (opt_.shards < 1) {
    throw std::invalid_argument("ShardedSimulation: need at least one shard");
  }
  if (opt_.replicas < 3) {
    throw std::invalid_argument(
        "ShardedSimulation: need >= 3 replicas per shard (process 0 takes "
        "beacons, >= 1 client, >= 1 spare)");
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

  clients_ = opt_.clients > 0 ? opt_.clients : std::max(1, opt_.replicas - 2);
  if (clients_ > opt_.replicas - 1) {
    throw std::invalid_argument(
        "ShardedSimulation: clients must leave process 0 free for beacons "
        "(clients <= replicas - 1)");
  }
  if (opt_.faults.churn.any() && clients_ + 1 >= opt_.replicas) {
    throw std::invalid_argument(
        "ShardedSimulation: churn needs a replica that neither receives "
        "beacons nor invokes (clients <= replicas - 2)");
  }

  // Worst-case response bound of the variant: the open-loop gap and the
  // beacon spacing are derived from it so no process ever has two
  // operations pending at once.
  HardenedParams hp;
  hp.spike_margin = opt_.faults.spike_p > 0 ? opt_.faults.spike_max : 0;
  const Tick bound = opt_.variant == ShardVariant::kStock
                         ? opt_.timing.d + opt_.timing.eps
                         : hp.effective_d(opt_.timing) + opt_.timing.eps;
  min_gap_ = opt_.min_gap > 0 ? opt_.min_gap : bound + 1000;
  sync_interval_ = opt_.sync_interval > 0 ? opt_.sync_interval : 2 * min_gap_;
  if (sync_interval_ <= bound) {
    throw std::invalid_argument(
        "ShardedSimulation: sync_interval must exceed the response bound " +
        std::to_string(bound) + " (beacons would overlap on process 0)");
  }

  lookahead_ = opt_.lookahead > 0 ? opt_.lookahead : opt_.timing.min_delay();
  if (lookahead_ < 1) {
    throw std::invalid_argument(
        "ShardedSimulation: conservative lookahead requires d > u (a zero "
        "minimum delay admits same-instant cross-shard delivery)");
  }
  if (lookahead_ > opt_.timing.min_delay()) {
    throw std::invalid_argument(
        "ShardedSimulation: lookahead " + std::to_string(lookahead_) +
        " exceeds the minimum cross-shard delay d - u = " +
        std::to_string(opt_.timing.min_delay()));
  }

  loads_ = zipfian_shard_loads(opt_.shards, opt_.total_ops, opt_.zipf_s,
                               SplitRng(opt_.seed).stream_seed(kLoadStream));

  // The full cross-shard beacon schedule, fixed here and never touched by
  // execution: at epoch time E_k each shard's ring predecessor sends it a
  // beacon, delivered after an admissible delay in [lookahead, d] drawn
  // from the (epoch, destination) stream.
  const SplitRng root(opt_.seed);
  beacons_.assign(static_cast<std::size_t>(opt_.shards), {});
  const Tick spread = opt_.timing.max_delay() - lookahead_;
  for (int k = 0; k < opt_.sync_epochs; ++k) {
    const Tick send = opt_.start_time + static_cast<Tick>(k) * sync_interval_;
    for (int dst = 0; dst < opt_.shards; ++dst) {
      Rng draw = root.stream(kBeaconStreamBase +
                             static_cast<std::uint64_t>(k) *
                                 static_cast<std::uint64_t>(opt_.shards) +
                             static_cast<std::uint64_t>(dst));
      Tick delay = lookahead_ + (spread > 0 ? draw.uniform_tick(0, spread) : 0);
      if (k == 0 && dst == opt_.mutant_early_epoch_shard) {
        // Planted violation: delivered the instant it is sent, below every
        // possible lookahead -- the barrier validation must reject it.
        delay = 0;
      }
      beacons_[static_cast<std::size_t>(dst)].push_back(
          Beacon{k, dst, send, send + delay});
    }
    last_beacon_send_ = send;
  }
}

ShardedSimulation::~ShardedSimulation() = default;

std::unique_ptr<ShardedSimulation::ShardState> ShardedSimulation::build_shard(
    int shard) const {
  auto state = std::make_unique<ShardState>();
  state->shard = shard;
  const auto s = static_cast<std::size_t>(shard);
  // The shard's own stream family: a pure function of (seed, shard id).
  const SplitRng streams(SplitRng(opt_.seed).stream_seed(
      kShardStreamBase + static_cast<std::uint64_t>(shard)));

  SystemOptions so;
  so.n = opt_.replicas;
  so.timing = opt_.timing;
  so.x = opt_.x;
  so.max_events = opt_.max_events_per_shard;
  if (s < opt_.shard_budget_override.size() && opt_.shard_budget_override[s]) {
    so.max_events = opt_.shard_budget_override[s];
  }
  so.delays = std::make_shared<UniformDelayPolicy>(
      opt_.timing, streams.stream_seed(kDelayStream));

  FaultConfig faults = opt_.faults;
  faults.seed = streams.stream_seed(kFaultStream);
  if (faults.any()) so.faults = make_fault_policy(faults);

  HardenedParams hp;
  hp.spike_margin = faults.spike_p > 0 ? faults.spike_max : 0;
  if (opt_.variant == ShardVariant::kHardened) {
    so.hardened = hp;
  } else if (opt_.variant == ShardVariant::kRecoverable) {
    RecoverableParams rp;
    rp.link = hp;
    so.recoverable = rp;
  }

  state->system = std::make_unique<ReplicaSystem>(model_, so);
  // Per-shard pool sizing (sim/pool_set.h, applied through the workload's
  // arm() below plus the per-replica pending reserves here): each shard
  // worker owns warmed pools, so its steady-state window stepping does not
  // allocate -- and, more importantly under parallel drive, does not
  // contend on the global heap with other workers.
  for (int p = 0; p < opt_.replicas; ++p) {
    state->system->replica(static_cast<ProcessId>(p)).reserve_pending(64);
  }

  if (faults.churn.any()) {
    // Generate for the full group, then keep only processes that neither
    // receive beacons (process 0) nor invoke operations (1..clients): the
    // open-loop schedule cannot re-issue an operation a crash would cut.
    // Per-process streams (SplitRng) mean the filter leaves the surviving
    // processes' windows untouched.
    const ChurnSchedule full = make_churn_schedule(faults, opt_.replicas);
    std::vector<ChurnWindow> kept;
    for (const ChurnWindow& w : full.windows()) {
      if (w.pid > clients_) kept.push_back(w);
    }
    state->churn = ChurnSchedule(std::move(kept));
    state->churn.apply(state->sim());
  }

  HeavyTrafficOptions w;
  w.clients = clients_;
  w.first_client = 1;  // process 0 is the beacon target
  w.total_ops = loads_[s];
  w.start_time = opt_.start_time;
  w.min_gap = min_gap_;
  w.jitter = opt_.jitter;
  w.seed = streams.stream_seed(kWorkloadStream);
  w.batch = 1024;
  // Reservation hint: Algorithm 1 broadcasts to the group per operation,
  // and the hardened link acks each delivery.
  w.messages_per_op = static_cast<std::size_t>(opt_.replicas) + 2;
  // Arena volume per op: the broadcast payload plus (hardened/recoverable)
  // per-peer link frames, acks and destructor-list nodes.
  w.payload_bytes_per_op = opt_.variant == ShardVariant::kStock ? 256 : 1024;
  w.timer_slots_per_process = 128;
  w.events_per_tick = 4;
  state->workload =
      std::make_unique<HeavyTrafficWorkload>(state->sim(), std::move(w));

  if (opt_.streaming_check) {
    CheckOptions co;
    co.limits = opt_.streaming_check_limits;
    co.jobs = 1;  // inline: the PDES workers are the parallelism
    state->checker = std::make_unique<StreamingChecker>(*model_, co);
    state->checker->attach(state->sim());
  }

  state->sim().start();
  state->workload->arm();
  return state;
}

void ShardedSimulation::step_window(ShardState& state, Tick horizon) {
  if (state.sim().run_window(horizon) == WindowOutcome::kBudget) {
    state.aborted = true;
  }
}

void ShardedSimulation::run_terminal(ShardState& state) {
  // The terminal infinite window: no cross-shard input can arrive anymore,
  // so the shard drains to quiescence with no further barriers.  A false
  // return is the event budget tripping (Simulator::run contract).
  if (!state.sim().run()) state.aborted = true;
}

void ShardedSimulation::inject_beacons(ShardState& state, Tick horizon) const {
  const auto& schedule = beacons_[static_cast<std::size_t>(state.shard)];
  while (state.next_beacon < schedule.size() &&
         schedule[state.next_beacon].send < horizon) {
    const Beacon& b = schedule[state.next_beacon];
    if (b.recv < horizon) {
      // A beacon sent inside the window [window_start, horizon) that
      // arrives before the horizon would have had to be processed inside
      // the very window that just ran without it -- the conservative
      // lookahead was violated and the trace can no longer be trusted.
      throw std::logic_error(
          "ShardedSimulation: beacon for shard " + std::to_string(b.dst) +
          " epoch " + std::to_string(b.epoch) + " sent at " +
          std::to_string(b.send) + " arrives at " + std::to_string(b.recv) +
          " < window end " + std::to_string(horizon) +
          " -- cross-shard delay below the conservative lookahead");
    }
    state.sim().invoke_at(b.recv, /*pid=*/0, reg::read());
    ++state.next_beacon;
    ++state.beacons_received;
  }
}

void ShardedSimulation::finalize_check(ShardState& state) {
  if (!state.checker || state.check_done || !state.check_error.empty()) return;
  try {
    state.check_result = state.checker->finalize();
    state.check_max_window = state.checker->max_window_ops();
    state.check_done = true;
  } catch (const std::exception& e) {
    // A tripped state budget poisons this shard's verdict only; the run
    // (and every other shard's check) carries on.
    state.check_error = e.what();
  }
}

ShardResult ShardedSimulation::finish_shard(const ShardState& state) const {
  ShardResult r;
  r.shard = state.shard;
  const Trace& trace = state.sim().trace();
  r.status = state.aborted
                 ? RunStatus::kAborted
                 : (trace.complete() ? RunStatus::kComplete
                                     : RunStatus::kStalled);
  r.trace_hash = hash_trace(trace);
  r.events = state.sim().events_processed();
  r.ops = trace.ops.size();
  r.end_time = trace.end_time;
  if (state.check_done) {
    r.checked = true;
    r.check_ok = state.check_result.ok;
    r.check_states = state.check_result.states_explored;
    r.check_segments = state.check_result.segments;
    r.check_max_resident = state.check_result.max_resident_states;
    r.check_max_window = state.check_max_window;
  }
  r.check_error = state.check_error;
  return r;
}

ShardRunReport ShardedSimulation::drive(
    std::vector<std::unique_ptr<ShardState>>& states, int jobs,
    bool plant_extra) const {
  ShardRunReport report;
  const ParallelSweepExecutor exec(resolve_jobs(jobs));
  const std::size_t count = states.size();

  if (opt_.sync_epochs > 0) {
    for (Tick window_start = 0;; window_start += lookahead_) {
      const Tick horizon = window_start + lookahead_;
      // All shards advance to the horizon in parallel; map() returning is
      // the barrier.  An aborted shard stops stepping (its budget tripped;
      // the trace is frozen at the trip point) but stays in the report.
      exec.map<int>(count, [&](std::size_t i) {
        if (!states[i]->aborted) step_window(*states[i], horizon);
        return 0;
      });
      ++report.windows;
      // Barrier exchange, serially in canonical shard order: deliver every
      // beacon whose send time fell inside the closed window.  Each push
      // lands in its destination shard's private queue, so the cross-shard
      // iteration order cannot perturb any shard's push sequence.
      for (auto& state : states) {
        if (state->aborted) continue;
        inject_beacons(*state, horizon);
        if (plant_extra && state->shard == opt_.mutant_extra_op_shard &&
            report.windows == 1) {
          // Planted divergence (parallel runs only -- run_solo strips the
          // knob): one operation run_solo never schedules, so this shard's
          // hash must differ from its single-threaded reference.  Placed
          // two epochs past the last beacon so it cannot overlap a pending
          // beacon on process 0.
          state->sim().invoke_at(last_beacon_send_ + 2 * sync_interval_,
                                 /*pid=*/0, reg::read());
        }
      }
      if (horizon > last_beacon_send_) break;
    }
  }

  exec.map<int>(count, [&](std::size_t i) {
    if (!states[i]->aborted) run_terminal(*states[i]);
    // Final-window search on the same worker, right after the drain: the
    // checked run's only serial tail is per shard, not global.
    finalize_check(*states[i]);
    return 0;
  });

  // Canonical-order aggregation (hashing each trace is the expensive part,
  // so it runs on the pool; the result vector is ordered by index).
  report.shards = exec.map<ShardResult>(
      count, [&](std::size_t i) { return finish_shard(*states[i]); });
  for (std::size_t i = 0; i < count; ++i) {
    report.beacons += states[i]->beacons_received;
    report.total_events += report.shards[i].events;
    report.total_ops += report.shards[i].ops;
    if (report.shards[i].status == RunStatus::kAborted) ++report.aborted;
    if (report.shards[i].checked) {
      ++report.checked;
      if (!report.shards[i].check_ok) ++report.check_failures;
    }
  }
  return report;
}

ShardRunReport ShardedSimulation::run(int jobs) {
  std::vector<std::unique_ptr<ShardState>> states(
      static_cast<std::size_t>(opt_.shards));
  const ParallelSweepExecutor exec(resolve_jobs(jobs));
  // Construction is per-shard pure, so it parallelizes like the run itself;
  // each worker writes only its own slot.
  exec.map<int>(states.size(), [&](std::size_t i) {
    states[i] = build_shard(static_cast<int>(i));
    return 0;
  });
  ShardRunReport report = drive(states, jobs, /*plant_extra=*/true);
  states_ = std::move(states);
  return report;
}

ShardResult ShardedSimulation::run_solo(int shard) const {
  if (shard < 0 || shard >= opt_.shards) {
    throw std::out_of_range("ShardedSimulation::run_solo: unknown shard");
  }
  // The reference run never carries the planted extra operation: that
  // divergence is exactly what references exist to expose.
  std::vector<std::unique_ptr<ShardState>> states;
  states.push_back(build_shard(shard));
  return drive(states, /*jobs=*/1, /*plant_extra=*/false).shards.front();
}

const Trace& ShardedSimulation::trace(int shard) const {
  if (states_.empty()) {
    throw std::logic_error("ShardedSimulation::trace before run()");
  }
  if (shard < 0 || static_cast<std::size_t>(shard) >= states_.size()) {
    throw std::out_of_range("ShardedSimulation::trace: unknown shard");
  }
  return states_[static_cast<std::size_t>(shard)]->sim().trace();
}

}  // namespace linbound
