// Simulator-core throughput: a million-operation open-loop run through
// Algorithm 1 (plus centralized / TOB baseline runs), measured end-to-end.
//
// What runs:
//   * HeavyTrafficWorkload (core/workload.h) drives --ops (default 1M)
//     register reads/writes through a 4-replica Algorithm 1 system with
//     every pool pre-sized from the workload bound.
//   * The run is split at a warm-up point (run_until + run, which produces
//     the identical trace) and the operator-new interposer
//     (common/alloc_count.cpp, linked with COUNT_ALLOCS) counts its
//     steady-state heap allocations -- recorded as
//     throughput_allocs_steady_state, required to be 0.
//   * The same workload (at --baseline-ops, default 200k) runs through the
//     centralized and TOB baselines for the cross-algorithm picture.
//
// Latency percentiles are reported against the paper's bounds: accessors
// respond in exactly d+eps-X and pure mutators ack in eps+X under the
// default worst-case delay policy (all messages take d), so p50 == max ==
// bound is the expected shape; the centralized/TOB numbers sit at ~2d
// (the folklore bound Algorithm 1 beats).
//
// Exit status is 0 only when
//   * every run completes (every operation answered, no event-cap trip),
//   * accessor/mutator worst-case latencies meet the paper's bounds,
//   * the replica run's steady state allocates nothing (when counted), and
//   * with --checked, the online check passes (see run_checked below).
//
// Results merge into BENCH_perf.json under throughput_* keys (JsonReport
// preserves bench_perf's keys).
#include <cstdio>
#include <cstring>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "checker/history.h"
#include "checker/lin_checker.h"
#include "checker/streaming_checker.h"
#include "common/alloc_count.h"
#include "core/system.h"
#include "core/workload.h"
#include "harness/latency.h"
#include "sim/trace_io.h"
#include "types/register_type.h"

using namespace linbound;
using namespace linbound::bench;

namespace {

struct RunResult {
  bool complete = false;
  double seconds = 0;
  std::size_t events = 0;
  std::size_t ops = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t allocs_steady = 0;    ///< heap allocs after warm-up (pooled)
  bool allocs_measured = false;
  std::size_t queue_high_water = 0;   ///< EventQueue peak size
  TraceStats stats;
  LatencyReport latency;

  double events_per_s() const { return seconds > 0 ? events / seconds : 0; }
  double ops_per_s() const { return seconds > 0 ? ops / seconds : 0; }
};

HeavyTrafficOptions workload_options(std::size_t ops) {
  HeavyTrafficOptions w;
  w.clients = kN;
  w.total_ops = ops;
  // Open-loop floor above every system's worst-case response (d+eps for
  // Algorithm 1, ~2d for the baselines); prime jitter spreads arrivals
  // across ticks so bucket occupancy is irregular, not strided.
  w.min_gap = 4 * default_timing().d;
  w.jitter = 997;
  return w;
}

SystemOptions system_options(std::size_t ops) {
  SystemOptions sys;
  sys.n = kN;
  sys.timing = default_timing();
  sys.x = 0;
  // Algorithm 1 costs ~3n+2 events per mutator (broadcast + per-replica
  // holdback timers); 40x leaves generous headroom for every system here.
  sys.max_events = ops * 40 + 100'000;
  return sys;
}

/// `pooled`: pre-size every pool from the workload bound (the replica runs;
/// the baselines run cold -- they only supply the latency picture).
HeavyTrafficOptions shaped_workload(std::size_t ops, bool pooled) {
  HeavyTrafficOptions w = workload_options(ops);
  if (pooled) {
    // Size every pool for the whole run (pool growth is monotonic; the
    // arena holds all payloads to end-of-run anyway, so reserving the full
    // volume only front-loads memory the run would reach regardless).
    // Stock Algorithm 1 at n=4: broadcast + acks stay well under 12
    // messages and ~256 payload bytes per op.
    w.messages_per_op = 12;
    w.payload_bytes_per_op = 256;
    w.timer_slots_per_process = 1024;
    w.events_per_tick = 16;
  }
  return w;
}

/// One open-loop run through `SystemT`.
template <typename SystemT>
RunResult run_system(const std::shared_ptr<const ObjectModel>& model,
                     std::size_t ops, bool pooled) {
  const SystemOptions sys = system_options(ops);
  const HeavyTrafficOptions w = shaped_workload(ops, pooled);

  SystemT system(model, sys);
  if constexpr (std::is_same_v<SystemT, ReplicaSystem>) {
    if (pooled) {
      for (ProcessId p = 0; p < kN; ++p) system.replica(p).reserve_pending(256);
    }
  }
  HeavyTrafficWorkload workload(system.sim(), w);
  system.sim().start();
  workload.arm();

  RunResult out;
  bool quiescent = false;
  const double t0 = now_seconds();
  if (pooled && alloc_counting_enabled()) {
    // Split run: run_until(t) + run() yields the identical trace to a
    // single run(), so the counter snapshot between the halves measures
    // the steady state of the real configuration.  ~15% of the schedule
    // is far past every pool's high-water mark (open-loop arrivals are
    // steady from the first operation).
    const Tick warmup = static_cast<Tick>(ops / static_cast<std::size_t>(kN)) *
                        (w.min_gap + w.jitter / 2) * 15 / 100;
    system.sim().run_until(warmup);
    const std::uint64_t before = heap_allocs();
    quiescent = system.sim().run();
    out.allocs_steady = heap_allocs() - before;
    out.allocs_measured = true;
  } else {
    quiescent = system.sim().run();
  }
  out.seconds = now_seconds() - t0;
  out.queue_high_water = system.sim().event_queue().high_water();

  const Trace& trace = system.sim().trace();
  out.complete = quiescent && trace.complete() &&
                 trace.ops.size() == ops && workload.scheduled() == ops;
  out.events = system.sim().events_processed();
  out.ops = trace.ops.size();
  out.trace_hash = hash_trace(trace);
  out.stats = trace.stats;
  out.latency.absorb(*model, trace);
  return out;
}

std::string parse_flag(int argc, char** argv, const char* flag,
                       const char* fallback) {
  const std::size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag && i + 1 < argc) return argv[i + 1];
    if (arg.rfind(flag, 0) == 0 && arg.size() > flag_len &&
        arg[flag_len] == '=') {
      return arg.substr(flag_len + 1);
    }
  }
  return fallback;
}

std::size_t parse_size(int argc, char** argv, const char* flag,
                       std::size_t fallback) {
  const std::string value = parse_flag(argc, argv, flag, "");
  return value.empty() ? fallback
                       : static_cast<std::size_t>(std::atoll(value.c_str()));
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// The `--checked` mode: the pooled million-op run again, this time
/// with a StreamingChecker tapping the simulator's invoke/response hooks --
/// the full history is verified linearizable *online*, during the run, with
/// resident checker state bounded by the open window instead of the
/// history.  Everything below is measured against the unchecked run:
///   * the trace must stay byte-identical (the tap is observation-only),
///   * the online verdict + witness must equal the offline checker's
///     (byte-compared), and
///   * checker memory (max_resident_states) must stay structurally bounded:
///     < ops/100, enforced on every box (no thread-count waiver -- it is a
///     memory property, not a wall-clock one).
/// The checked/unchecked events-per-second ratio is the overhead price; its
/// >= 1/3 gate is wall-clock and follows the usual thread waiver.
struct CheckedRun {
  bool complete = false;
  bool tap_invisible = false;   ///< trace hash == unchecked run's
  bool identical = false;       ///< verdict+witness == offline checker's
  bool memory_ok = false;
  double run_s = 0;             ///< simulate + pipelined drain
  double finalize_s = 0;        ///< final-window search + witness assembly
  std::size_t events = 0;
  CheckResult live;
  std::size_t max_window = 0;
  std::size_t segments_retired = 0;
  std::size_t offline_resident = 0;  ///< offline dead-memo population

  double total_s() const { return run_s + finalize_s; }
  double events_per_s() const {
    return total_s() > 0 ? events / total_s() : 0;
  }
};

CheckedRun run_checked(const std::shared_ptr<const ObjectModel>& model,
                       std::size_t ops, int checker_jobs,
                       std::uint64_t unchecked_hash) {
  ReplicaSystem system(model, system_options(ops));
  for (ProcessId p = 0; p < kN; ++p) system.replica(p).reserve_pending(256);
  HeavyTrafficWorkload workload(system.sim(), shaped_workload(ops, true));

  CheckOptions so;
  so.jobs = checker_jobs;
  so.ring_capacity = 8192;
  StreamingChecker checker(*model, so);
  checker.attach(system.sim());

  system.sim().start();
  workload.arm();

  CheckedRun out;
  const double t0 = now_seconds();
  const bool quiescent = system.sim().run();
  out.run_s = now_seconds() - t0;
  out.live = checker.finalize();
  out.finalize_s = now_seconds() - t0 - out.run_s;

  const Trace& trace = system.sim().trace();
  out.complete = quiescent && trace.complete() && trace.ops.size() == ops &&
                 checker.ops_seen() == ops;
  out.events = system.sim().events_processed();
  out.max_window = checker.max_window_ops();
  out.segments_retired = checker.segments_retired();
  out.tap_invisible = hash_trace(trace) == unchecked_hash;
  out.memory_ok = out.live.max_resident_states < ops / 100;

  // Offline reference: the same trace through the offline checker; verdict
  // and witness must be byte-identical to the online run.
  const auto [history, pending] = history_with_pending(trace);
  const CheckResult off =
      check_linearizable_with_pending(*model, history, pending);
  out.identical = off.ok == out.live.ok && off.witness == out.live.witness;
  out.offline_resident = off.max_resident_states;
  return out;
}

void print_class_latency(const char* label, const LatencyReport& report,
                         OpClass cls, Tick bound) {
  auto it = report.by_class.find(cls);
  if (it == report.by_class.end()) {
    std::printf("  %-10s (no samples)\n", label);
    return;
  }
  const LatencySummary& s = it->second;
  std::printf("  %-10s p50=%lld p95=%lld p99=%lld max=%lld  (bound %lld: %s)\n",
              label, static_cast<long long>(s.percentile(50)),
              static_cast<long long>(s.percentile(95)),
              static_cast<long long>(s.percentile(99)),
              static_cast<long long>(s.max), static_cast<long long>(bound),
              s.max <= bound ? "met" : "EXCEEDED");
}

Tick class_max(const LatencyReport& report, OpClass cls) {
  auto it = report.by_class.find(cls);
  return it == report.by_class.end() ? kNoTime : it->second.max;
}

Tick class_pct(const LatencyReport& report, OpClass cls, double p) {
  auto it = report.by_class.find(cls);
  return it == report.by_class.end() ? kNoTime : it->second.percentile(p);
}

}  // namespace

int main(int argc, char** argv) {
  print_header("bench_throughput: million-op open-loop simulator throughput");

  const std::size_t ops = parse_size(argc, argv, "--ops", 1'000'000);
  const std::size_t baseline_ops =
      parse_size(argc, argv, "--baseline-ops", 200'000);
  const SystemTiming timing = default_timing();
  const Tick aop_bound = timing.d + timing.eps;  // d+eps-X with X=0
  const Tick mop_bound = timing.eps;             // eps+X with X=0

  auto model = std::make_shared<RegisterModel>();

  // --- 1. Algorithm 1, pools pre-sized --------------------------------------
  std::printf("replica run: %zu ops, n=%d, d=%lld u=%lld eps=%lld, X=0\n", ops,
              kN, static_cast<long long>(timing.d),
              static_cast<long long>(timing.u),
              static_cast<long long>(timing.eps));
  const RunResult replica = run_system<ReplicaSystem>(model, ops, true);
  std::printf(
      "replica:   %.3fs, %zu events (%.0f events/s, %.0f ops/s)%s\n",
      replica.seconds, replica.events, replica.events_per_s(),
      replica.ops_per_s(), replica.complete ? "" : "  [INCOMPLETE]");
  std::printf(
      "timers:    %llu set, %llu cancelled, %llu purged at dispatch\n",
      static_cast<unsigned long long>(replica.stats.timers_set),
      static_cast<unsigned long long>(replica.stats.timers_cancelled),
      static_cast<unsigned long long>(replica.stats.timers_purged));
  std::printf("trace:     fnv1a %016llx\n",
              static_cast<unsigned long long>(replica.trace_hash));
  const bool allocs_ok =
      !replica.allocs_measured || replica.allocs_steady == 0;
  if (replica.allocs_measured) {
    std::printf(
        "pools:     %llu steady-state heap allocs%s, queue high water %zu\n",
        static_cast<unsigned long long>(replica.allocs_steady),
        allocs_ok ? "" : " (NEED 0)", replica.queue_high_water);
  } else {
    std::printf(
        "pools:     steady-state allocs not measured (link linbound_alloccount)"
        "; queue high water %zu\n",
        replica.queue_high_water);
  }

  // --- 2. Latency percentiles vs the paper's bounds ------------------------
  std::printf("\nlatency (replica, %zu ops):\n", ops);
  print_class_latency("accessor", replica.latency, OpClass::kPureAccessor,
                      aop_bound);
  print_class_latency("mutator", replica.latency, OpClass::kPureMutator,
                      mop_bound);
  const bool bounds_met =
      class_max(replica.latency, OpClass::kPureAccessor) <= aop_bound &&
      class_max(replica.latency, OpClass::kPureMutator) <= mop_bound;

  // --- 3. Centralized / TOB baselines (folklore ~2d latency) ---------------
  const RunResult central =
      run_system<CentralizedSystem>(model, baseline_ops, false);
  const RunResult tob = run_system<TobSystem>(model, baseline_ops, false);
  std::printf("\nbaselines (%zu ops each, vs folklore 2d = %lld):\n",
              baseline_ops, static_cast<long long>(2 * timing.d));
  std::printf("  centralized: %.3fs (%.0f events/s), worst latency %lld%s\n",
              central.seconds, central.events_per_s(),
              static_cast<long long>(
                  class_max(central.latency, OpClass::kPureAccessor)),
              central.complete ? "" : "  [INCOMPLETE]");
  std::printf("  tob:         %.3fs (%.0f events/s), worst latency %lld%s\n",
              tob.seconds, tob.events_per_s(),
              static_cast<long long>(
                  class_max(tob.latency, OpClass::kPureAccessor)),
              tob.complete ? "" : "  [INCOMPLETE]");

  // --- 4. Online (streaming) linearizability check at full scale ----------
  const bool checked_mode = has_flag(argc, argv, "--checked");
  const int checker_jobs = 2;  // one producer (the sim), one checker worker
  CheckedRun checked;
  bool checked_speedup_ok = true;
  double checked_speedup = 0;
  if (checked_mode) {
    std::printf("\nchecked run: streaming checker tapped in, jobs=%d\n",
                checker_jobs);
    checked = run_checked(model, ops, checker_jobs, replica.trace_hash);
    checked_speedup = replica.events_per_s() > 0
                          ? checked.events_per_s() / replica.events_per_s()
                          : 0;
    std::printf(
        "checked:   %.3fs run + %.3fs finalize (%.0f events/s, %.2fx of "
        "unchecked)%s\n",
        checked.run_s, checked.finalize_s, checked.events_per_s(),
        checked_speedup, checked.complete ? "" : "  [INCOMPLETE]");
    std::printf(
        "verdict:   %s, %llu segments (%zu retired online), witness %s "
        "offline\n",
        checked.live.ok ? "linearizable" : "VIOLATION",
        static_cast<unsigned long long>(checked.live.segments),
        checked.segments_retired,
        checked.identical ? "identical to" : "DIVERGED from");
    std::printf(
        "memory:    %zu resident states at peak (offline memo: %zu), window "
        "high water %zu ops -- %s\n",
        checked.live.max_resident_states, checked.offline_resident,
        checked.max_window,
        checked.memory_ok ? "bounded" : "UNBOUNDED (>= ops/100)");
    std::printf("trace:     %s\n",
                checked.tap_invisible ? "byte-identical to unchecked run"
                                      : "PERTURBED BY THE TAP");
    // The overhead ratio is wall-clock, so it follows the thread waiver;
    // verdict/witness identity, tap invisibility and the memory bound are
    // structural and always gate.
    checked_speedup_ok =
        !bench::speedup_gates_enforced() || checked_speedup >= 1.0 / 3.0;
  }

  // --- Verdict + JSON ------------------------------------------------------
  // Drift policy: every throughput number cited in prose (EXPERIMENTS.md,
  // README.md, ROADMAP.md) must be copied from the committed
  // BENCH_perf.json, and a PR that regenerates BENCH_perf.json must update
  // those citations in the same change.  tools/check_bench_schema.sh keeps
  // the JSON itself shaped; the prose follows the JSON, never the reverse.
  const bool ok = replica.complete && central.complete && tob.complete &&
                  bounds_met && allocs_ok &&
                  (!checked_mode ||
                   (checked.complete && checked.live.ok && checked.identical &&
                    checked.tap_invisible && checked.memory_ok &&
                    checked_speedup_ok));

  JsonReport json(parse_flag(argc, argv, "--json", "BENCH_perf.json"));
  json.set("throughput_ops", ops);
  json.set("throughput_baseline_ops", baseline_ops);
  json.set("throughput_replica_events", replica.events);
  json.set("throughput_calendar_s", replica.seconds);
  json.set("throughput_calendar_events_per_s", replica.events_per_s());
  json.set("throughput_calendar_ops_per_s", replica.ops_per_s());
  json.set("throughput_allocs_steady_state", replica.allocs_steady);
  json.set("throughput_allocs_measured", replica.allocs_measured);
  json.set("throughput_pool_high_water", replica.queue_high_water);
  json.set("throughput_timers_set",
           static_cast<std::uint64_t>(replica.stats.timers_set));
  json.set("throughput_timers_cancelled",
           static_cast<std::uint64_t>(replica.stats.timers_cancelled));
  json.set("throughput_timers_purged",
           static_cast<std::uint64_t>(replica.stats.timers_purged));
  json.set("throughput_aop_bound", static_cast<long long>(aop_bound));
  const LatencyReport& lat = replica.latency;
  json.set("throughput_aop_p50",
           static_cast<long long>(class_pct(lat, OpClass::kPureAccessor, 50)));
  json.set("throughput_aop_p99",
           static_cast<long long>(class_pct(lat, OpClass::kPureAccessor, 99)));
  json.set("throughput_aop_max",
           static_cast<long long>(class_max(lat, OpClass::kPureAccessor)));
  json.set("throughput_mop_bound", static_cast<long long>(mop_bound));
  json.set("throughput_mop_p50",
           static_cast<long long>(class_pct(lat, OpClass::kPureMutator, 50)));
  json.set("throughput_mop_p99",
           static_cast<long long>(class_pct(lat, OpClass::kPureMutator, 99)));
  json.set("throughput_mop_max",
           static_cast<long long>(class_max(lat, OpClass::kPureMutator)));
  json.set("throughput_bounds_met", bounds_met);
  json.set("throughput_centralized_events_per_s", central.events_per_s());
  json.set("throughput_centralized_max_latency",
           static_cast<long long>(
               class_max(central.latency, OpClass::kPureAccessor)));
  json.set("throughput_tob_events_per_s", tob.events_per_s());
  json.set("throughput_tob_max_latency",
           static_cast<long long>(
               class_max(tob.latency, OpClass::kPureAccessor)));
  if (checked_mode) {
    json.set("streaming_checker_ops", ops);
    json.set("streaming_checker_jobs", checker_jobs);
    json.set("streaming_checker_ok", checked.live.ok);
    json.set("streaming_checker_segments",
             static_cast<std::uint64_t>(checked.live.segments));
    json.set("streaming_checker_states",
             static_cast<std::uint64_t>(checked.live.states_explored));
    json.set("streaming_checker_states_per_s",
             checked.total_s() > 0 ? checked.live.states_explored /
                                         checked.total_s()
                                   : 0.0);
    json.set("streaming_checker_run_s", checked.run_s);
    json.set("streaming_checker_finalize_s", checked.finalize_s);
    json.set("streaming_checker_events_per_s", checked.events_per_s());
    json.set("streaming_checker_speedup", checked_speedup);
    json.set("streaming_checker_speedup_threads", bench::hardware_threads());
    json.set("streaming_checker_speedup_gate_enforced",
             bench::speedup_gates_enforced());
    json.set("streaming_checker_max_resident_states",
             static_cast<std::uint64_t>(checked.live.max_resident_states));
    json.set("streaming_checker_offline_resident_states",
             static_cast<std::uint64_t>(checked.offline_resident));
    json.set("streaming_checker_max_window_ops",
             static_cast<std::uint64_t>(checked.max_window));
    json.set("streaming_checker_memory_ok", checked.memory_ok);
    json.set("streaming_checker_identical", checked.identical);
    json.set("streaming_checker_tap_invisible", checked.tap_invisible);
  }
  std::printf(json.write() ? "wrote %s\n" : "FAILED writing %s\n",
              json.path().c_str());

  return finish(ok);
}
