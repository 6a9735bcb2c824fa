// Performance benchmark for the hot paths: linearizability-checker
// throughput (COW snapshots + cached fingerprints + bucketed memo), the one
// WGL search core timed on adversarial shapes (a wide frontier and a
// multi-segment history), simulator event throughput (typed events +
// payload arena), and sweep wall-clock serial vs --jobs N
// (common/parallel.h).
//
// Prints a human-readable report, writes machine-readable numbers to
// BENCH_perf.json, and exits 0 only when
//   * the parallel fault and churn sweeps are byte-identical to their
//     serial runs (tables and aggregate counters compared verbatim),
//   * the fault sweep's three claims hold (harness/fault_sweep.h),
//   * the checker returns the known verdicts on the adversarial shapes,
//     and
//   * with jobs >= 4 available, at least one sweep speeds up >= 2x.
#include <malloc.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "checker/lin_checker.h"
#include "core/driver.h"
#include "core/workload.h"
#include "harness/churn_sweep.h"
#include "harness/fault_sweep.h"
#include "types/queue_type.h"
#include "types/register_type.h"

using namespace linbound;
using namespace linbound::bench;

namespace {

/// One deterministic Algorithm 1 run under a uniform-random admissible
/// schedule; the shared workload shape for the checker and simulator
/// measurements.
struct RunProduct {
  History history;
  std::size_t events = 0;
};

RunProduct one_run(const std::shared_ptr<const ObjectModel>& model,
                   std::uint64_t seed) {
  const SystemTiming t = default_timing();
  Rng rng(seed);

  SystemOptions sys;
  sys.n = kN;
  sys.timing = t;
  sys.x = 0;
  sys.delays = std::make_shared<UniformDelayPolicy>(t, rng.next_u64());

  ReplicaSystem system(model, sys);

  const OpMix mix{2, 2, 2};
  WorkloadDriver driver(system.sim(),
                        client_scripts(kN, rng, /*think_time=*/0,
                                       [&](ProcessId, Rng& client_rng) {
                                         return random_register_ops(client_rng,
                                                                    10, mix);
                                       }));
  driver.arm();

  RunProduct out;
  out.history = system.run_to_completion();
  out.events = system.sim().events_processed();
  return out;
}

struct SweepTimings {
  double serial_s = 0;
  double parallel_s = 0;
  bool identical = false;
  double speedup() const {
    return parallel_s > 0 ? serial_s / parallel_s : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  print_header("bench_perf: checker throughput, simulator throughput, sweep scaling");

  int jobs = parse_jobs(argc, argv);
  if (jobs <= 1) jobs = resolve_jobs(0);  // default: one per hardware thread
  std::printf("parallel sweeps use --jobs %d (hardware threads: %u)\n\n", jobs,
              std::thread::hardware_concurrency());

  auto model = std::make_shared<RegisterModel>();

  // --- 1. Linearizability-checker throughput -------------------------------
  constexpr int kHistories = 8;
  constexpr int kCheckRounds = 40;
  std::vector<History> histories;
  std::size_t ops_per_round = 0;
  const double simulate_t0 = now_seconds();
  for (int s = 0; s < kHistories; ++s) {
    RunProduct run = one_run(model, 0xbe9cful + static_cast<std::uint64_t>(s));
    ops_per_round += run.history.ops().size();
    histories.push_back(std::move(run.history));
  }
  const double simulate_s = now_seconds() - simulate_t0;
  std::size_t states = 0;
  std::size_t memo_hits = 0;
  bool all_ok = true;
  const double check_t0 = now_seconds();
  for (int round = 0; round < kCheckRounds; ++round) {
    for (const History& h : histories) {
      const CheckResult check = check_linearizable(*model, h);
      all_ok = all_ok && check.ok;
      states += check.states_explored;
      memo_hits += check.memo_hits;
    }
  }
  const double check_s = now_seconds() - check_t0;
  const double checks_per_s = kCheckRounds * kHistories / check_s;
  const double ops_per_s = kCheckRounds * static_cast<double>(ops_per_round) / check_s;
  const double memo_rate =
      states + memo_hits ? static_cast<double>(memo_hits) / (states + memo_hits) : 0.0;
  std::printf("checker:   %7.0f histories/s, %8.0f ops/s, memo hit rate %.2f%%%s\n",
              checks_per_s, ops_per_s, 100.0 * memo_rate,
              all_ok ? "" : "  [UNEXPECTED VIOLATION]");
  std::printf("phases:    simulate %.3fs, check %.3fs\n", simulate_s, check_s);

  // --- 2. Search-core timing on adversarial shapes ------------------------
  // Wide-frontier history: `width` single-enqueue processes, all pairwise
  // concurrent with distinct values (every interleaving is a distinct queue
  // state, so memoization cannot collapse the tree), then a dequeue of a
  // value never enqueued.  Non-linearizable: the search must exhaust all
  // width! interleavings.
  auto queue = std::make_shared<QueueModel>();
  std::vector<HistoryOp> wide_ops;
  constexpr int kWideWidth = 8;
  for (int p = 0; p < kWideWidth; ++p) {
    wide_ops.push_back({static_cast<ProcessId>(p), queue_ops::enqueue(100 + p),
                        Value::unit(), 0, 1});
  }
  wide_ops.push_back({static_cast<ProcessId>(kWideWidth), queue_ops::dequeue(),
                      Value(999), 2, 3});
  const History wide(std::move(wide_ops));

  // Multi-segment history: bursts of concurrent distinct enqueues, each
  // burst strictly after the previous one -- one quiescent cut per burst.
  std::vector<HistoryOp> seg_ops;
  constexpr int kSegBursts = 24;
  constexpr int kSegWidth = 5;
  for (int s = 0; s < kSegBursts; ++s) {
    const Tick t0 = s * 10;
    for (int p = 0; p < kSegWidth; ++p) {
      seg_ops.push_back({static_cast<ProcessId>(p),
                         queue_ops::enqueue(s * 100 + p), Value::unit(), t0,
                         t0 + 1});
    }
  }
  const History multi(std::move(seg_ops));
  const std::size_t multi_segments = segment_history(multi).size();

  // Freeing the wide check's 110k-entry memo leaves allocator cleanup that
  // the next large allocation would pay for; malloc_trim charges it to the
  // wide check instead of to the section that happens to run next.
  Stopwatch core_sw;
  const CheckResult wide_check = check_linearizable(*queue, wide);
  malloc_trim(0);
  const double wide_s = core_sw.lap();
  const CheckResult multi_check = check_linearizable(*queue, multi);
  const double multi_s = core_sw.lap();
  const bool core_verdicts_ok = !wide_check.ok &&
                                !wide_check.explanation.empty() &&
                                multi_check.ok;
  std::printf(
      "checker core (wide): %.3fs, %zu states, %zu resident  (%s)\n",
      wide_s, wide_check.states_explored, wide_check.max_resident_states,
      wide_check.ok ? "UNEXPECTEDLY LINEARIZABLE" : "violation found");
  std::printf("checker core (multi-segment, %zu segments): %.6fs  (%s)\n",
              multi_segments, multi_s,
              multi_check.ok ? "linearizable" : "UNEXPECTED VIOLATION");

  // --- 3. Simulator event throughput ---------------------------------------
  constexpr int kSimRuns = 24;
  std::size_t events = 0;
  const double sim_t0 = now_seconds();
  for (int s = 0; s < kSimRuns; ++s) {
    events += one_run(model, 0x51e4ull + static_cast<std::uint64_t>(s)).events;
  }
  const double sim_s = now_seconds() - sim_t0;
  const double events_per_s = static_cast<double>(events) / sim_s;
  std::printf("simulator: %7.0f events/s over %d runs (%zu events)\n",
              events_per_s, kSimRuns, events);

  // --- 4. Sweep wall-clock: serial vs parallel -----------------------------
  const OpMix mix{2, 2, 2};
  WorkloadFactory workload = [&](ProcessId, Rng& rng) {
    return random_register_ops(rng, 10, mix);
  };

  FaultSweepOptions fault_opts;
  fault_opts.n = kN;
  fault_opts.timing = default_timing();
  fault_opts.x = 0;
  // Enough grid that the serial sweep takes on the order of a second, so
  // the speedup gate measures sweep work, not pool start-up.
  fault_opts.seeds = 480;

  SweepTimings fault;
  bool fault_claims[3] = {};
  {
    fault_opts.jobs = 1;
    const double t0 = now_seconds();
    const FaultSweepResult serial = run_fault_sweep(model, workload, fault_opts);
    fault.serial_s = now_seconds() - t0;
    fault_claims[0] = serial.hardened_all_linearizable();
    fault_claims[1] = serial.unhardened_flagged_under_drops();
    fault_claims[2] = serial.all_failures_attributed();
    fault_opts.jobs = jobs;
    const double t1 = now_seconds();
    const FaultSweepResult parallel = run_fault_sweep(model, workload, fault_opts);
    fault.parallel_s = now_seconds() - t1;
    fault.identical = serial.table() == parallel.table() &&
                      serial.ok() == parallel.ok() &&
                      serial.cells.size() == parallel.cells.size();
  }
  std::printf("fault sweep: serial %.3fs, --jobs %d %.3fs  (%.2fx, %s)\n",
              fault.serial_s, jobs, fault.parallel_s, fault.speedup(),
              fault.identical ? "byte-identical" : "RESULTS DIVERGED");
  std::printf(
      "fault sweep claims: hardened linearizable unless its link gave up %s, "
      "stock flagged under drops %s, every failure attributed %s\n",
      fault_claims[0] ? "holds" : "VIOLATED",
      fault_claims[1] ? "holds" : "VIOLATED",
      fault_claims[2] ? "holds" : "VIOLATED");

  ChurnSweepOptions churn_opts;
  churn_opts.n = kN;
  churn_opts.timing = default_timing();
  churn_opts.x = 0;
  churn_opts.seeds = 1800;
  churn_opts.ops_per_client = 10;
  churn_opts.recoverable.link.max_attempts = 3;

  SweepTimings churn;
  {
    churn_opts.jobs = 1;
    const double t0 = now_seconds();
    const ChurnSweepResult serial = run_churn_sweep(model, workload, churn_opts);
    churn.serial_s = now_seconds() - t0;
    churn_opts.jobs = jobs;
    const double t1 = now_seconds();
    const ChurnSweepResult parallel = run_churn_sweep(model, workload, churn_opts);
    churn.parallel_s = now_seconds() - t1;
    churn.identical = serial.table() == parallel.table() &&
                      serial.ok() == parallel.ok() &&
                      serial.cells.size() == parallel.cells.size();
  }
  std::printf("churn sweep: serial %.3fs, --jobs %d %.3fs  (%.2fx, %s)\n",
              churn.serial_s, jobs, churn.parallel_s, churn.speedup(),
              churn.identical ? "byte-identical" : "RESULTS DIVERGED");

  // --- Verdict + JSON ------------------------------------------------------
  const double best_speedup = std::max(fault.speedup(), churn.speedup());
  const bool speedup_applicable = bench::speedup_gates_enforced(jobs);
  const bool speedup_ok = !speedup_applicable || best_speedup >= 2.0;
  const bool ok = all_ok && fault.identical && churn.identical &&
                  fault_claims[0] && fault_claims[1] && fault_claims[2] &&
                  core_verdicts_ok && speedup_ok;

  if (speedup_applicable) {
    std::printf("\nbest sweep speedup at --jobs %d: %.2fx (need >= 2.0x)\n",
                jobs, best_speedup);
  } else {
    std::printf("\nfewer than 4 workers available; speedup gates waived\n");
  }

  // Merge into the shared report (bench_throughput owns the throughput_*
  // keys of the same file; see bench_common.h JsonReport).
  JsonReport json("BENCH_perf.json");
  json.set("jobs", jobs);
  json.set("hardware_threads", bench::hardware_threads());
  json.set("checker_histories_per_s", checks_per_s);
  json.set("checker_ops_per_s", ops_per_s);
  json.set("checker_memo_hit_rate", memo_rate);
  json.set("phase_simulate_s", simulate_s);
  json.set("phase_check_s", check_s);
  json.set("checker_wide_s", wide_s);
  json.set("checker_wide_states", wide_check.states_explored);
  // Peak checker memory: the dead-memo population on the wide frontier
  // (the streaming path's sibling lives under streaming_checker_*).
  json.set("checker_max_resident_states", wide_check.max_resident_states);
  json.set("checker_verdicts_ok", core_verdicts_ok);
  json.set("checker_multi_segment_segments", multi_segments);
  json.set("checker_multi_segment_s", multi_s);
  json.set("simulator_events_per_s", events_per_s);
  json.set("fault_sweep_serial_s", fault.serial_s);
  json.set("fault_sweep_parallel_s", fault.parallel_s);
  json.set("fault_sweep_speedup", fault.speedup());
  json.set("fault_sweep_speedup_threads", bench::hardware_threads());
  json.set("fault_sweep_identical", fault.identical);
  json.set("fault_sweep_claim_hardened_linearizable", fault_claims[0]);
  json.set("fault_sweep_claim_stock_flagged", fault_claims[1]);
  json.set("fault_sweep_claim_failures_attributed", fault_claims[2]);
  json.set("churn_sweep_serial_s", churn.serial_s);
  json.set("churn_sweep_parallel_s", churn.parallel_s);
  json.set("churn_sweep_speedup", churn.speedup());
  json.set("churn_sweep_speedup_threads", bench::hardware_threads());
  json.set("churn_sweep_identical", churn.identical);
  json.set("best_sweep_speedup", best_speedup);
  // A speedup number is meaningless without the worker count it was
  // measured with: ~1.0 on a 1-thread box is expected, not a regression.
  json.set("best_sweep_speedup_threads", bench::hardware_threads());
  std::printf(json.write() ? "wrote %s\n" : "FAILED writing %s\n",
              json.path().c_str());

  return finish(ok);
}
