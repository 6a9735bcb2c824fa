// Multi-tenant sharded simulation at scale: --shards independent register
// groups (default 1024) absorbing --ops total operations (default 1M,
// zipfian-apportioned), advanced by the conservative-PDES window protocol
// of src/shard/ at several worker counts.
//
// What runs:
//   * One ShardedSimulation is configured (stock variant, default timing,
//     4 cross-shard clock-sync epochs) and its per-shard single-threaded
//     references are computed first: run_solo for every shard, each the
//     identical window/barrier sequence with the other shards absent.
//   * The full parallel run then executes at --jobs-list (default 1,2,4).
//     After every run, ALL per-shard trace hashes are compared to the solo
//     references -- the determinism contract (DESIGN.md section 14) at
//     four-digit shard counts: byte-identical traces at any worker count.
//   * Wall-clock per jobs level yields shard_scaling_speedup =
//     t(jobs=1) / min over parallel levels.
//
// Exit status is 0 only when
//   * every run completes (no shard aborted, every operation answered),
//   * every per-shard hash at every jobs level equals its solo reference
//     (always fatal -- identity is never waived), and
//   * scaling speedup >= 1.3x at jobs >= 4 -- enforced only where the
//     hardware can express it (bench_common.h speedup_gates_enforced);
//     thread-starved boxes record the measurement without asserting it, and
//   * the fastest run makes at most one heap allocation per operation
//     (enforced whenever the alloc interposer is linked): a run's allocs
//     are per-shard set-up only, so per-bucket or per-event storage
//     creeping back into the queue shows up here.
//
// Results merge into BENCH_perf.json under shard_* keys (JsonReport
// preserves bench_perf's and bench_throughput's sections), including the
// memory picture: the fastest run's minor page faults (shard_minflt) and
// the process's peak RSS (shard_peak_rss_mib; every run starts from a
// fresh simulation with the previous one's pages returned, so this is the
// largest single run's peak).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/alloc_count.h"
#include "shard/shard.h"
#include "sim/trace_io.h"

using namespace linbound;
using namespace linbound::bench;

namespace {

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
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

std::vector<int> parse_jobs_list(int argc, char** argv) {
  const std::string raw = parse_flag(argc, argv, "--jobs-list", "1,2,4");
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < raw.size()) {
    const std::size_t comma = raw.find(',', pos);
    const std::string tok = raw.substr(pos, comma == std::string::npos
                                                ? std::string::npos
                                                : comma - pos);
    if (!tok.empty()) out.push_back(resolve_jobs(std::atoi(tok.c_str())));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) out = {1, 2, 4};
  return out;
}

struct TimedRun {
  int jobs = 1;
  double seconds = 0;
  std::uint64_t allocs = 0;    ///< heap allocs during the run (interposer)
  long minflt = 0;             ///< minor page faults during the run
  ShardRunReport report;
  std::size_t mismatches = 0;  ///< shards whose hash diverged from solo ref
};

}  // namespace

int main(int argc, char** argv) {
  print_header("bench_shard: sharded conservative-PDES scaling + identity");

  ShardOptions opt;
  opt.shards = static_cast<int>(parse_size(argc, argv, "--shards", 1024));
  opt.total_ops = parse_size(argc, argv, "--ops", 1'000'000);
  opt.timing = default_timing();
  const std::vector<int> jobs_list = parse_jobs_list(argc, argv);

  ShardedSimulation sim(opt);
  std::printf(
      "%d shards x %zu total ops (zipf s=%.2f), %d replicas/shard, "
      "lookahead=%lld, %d sync epochs every %lld ticks\n",
      opt.shards, opt.total_ops, opt.zipf_s, ShardOptions::kReplicas,
      static_cast<long long>(sim.lookahead()), opt.sync_epochs,
      static_cast<long long>(sim.sync_interval()));

  // --- 1. Single-threaded references, one per shard -----------------------
  // run_solo is self-contained, so the references themselves may be farmed
  // out; their hashes are the oracle every parallel run is held to.
  const int ref_jobs = resolve_jobs(0);  // one worker per hardware thread
  ParallelSweepExecutor ref_exec(ref_jobs);
  const double ref_t0 = now_seconds();
  const std::vector<std::uint64_t> reference =
      ref_exec.map<std::uint64_t>(static_cast<std::size_t>(opt.shards),
                                  [&](std::size_t s) {
                                    return sim.run_solo(static_cast<int>(s))
                                        .trace_hash;
                                  });
  const double ref_seconds = now_seconds() - ref_t0;
  std::printf("solo references: %d shards in %.3fs (%d workers)\n\n",
              opt.shards, ref_seconds, ref_jobs);

  // --- 2. Parallel runs at each worker count ------------------------------
  std::vector<TimedRun> runs;
  bool all_complete = true;
  bool identity_ok = true;
  for (const int jobs : jobs_list) {
    TimedRun r;
    r.jobs = jobs;
    // Each run gets a fresh simulation, and the previous run's pages go
    // back to the kernel first: every run builds and faults in its own
    // shards, and none pays for tearing down its predecessor's.
    malloc_trim(0);
    ShardedSimulation run_sim(opt);
    const std::uint64_t a0 = heap_allocs();
    const long f0 = minor_faults();
    const double t0 = now_seconds();
    r.report = run_sim.run(jobs);
    r.seconds = now_seconds() - t0;
    r.allocs = heap_allocs() - a0;
    r.minflt = minor_faults() - f0;
    for (const ShardResult& shard : r.report.shards) {
      if (shard.trace_hash !=
          reference[static_cast<std::size_t>(shard.shard)]) {
        ++r.mismatches;
      }
    }
    const double events_per_s =
        r.seconds > 0 ? r.report.total_events / r.seconds : 0;
    std::printf(
        "jobs=%-3d %.3fs, %zu events (%.0f events/s), %zu ops, "
        "%zu windows, %zu beacons, %ld minor faults, %d aborted, "
        "identity %s\n",
        jobs, r.seconds, r.report.total_events, events_per_s,
        r.report.total_ops, r.report.windows, r.report.beacons, r.minflt,
        r.report.aborted,
        r.mismatches == 0
            ? "byte-identical"
            : ("DIVERGED on " + std::to_string(r.mismatches) + " shards")
                  .c_str());
    all_complete = all_complete && r.report.aborted == 0 &&
                   r.report.total_ops >= opt.total_ops;
    identity_ok = identity_ok && r.mismatches == 0;
    runs.push_back(std::move(r));
  }
  // Read before the --checked run below, which builds a second simulation.
  const double peak_rss = peak_rss_mib();
  std::printf("peak RSS over the runs: %.1f MiB\n", peak_rss);

  // --- 3. Scaling gate ----------------------------------------------------
  double serial_seconds = 0;
  double best_parallel_seconds = 0;
  int best_jobs = 1;
  for (const TimedRun& r : runs) {
    if (r.jobs <= 1 && (serial_seconds == 0 || r.seconds < serial_seconds)) {
      serial_seconds = r.seconds;
    }
    if (r.jobs > 1 &&
        (best_parallel_seconds == 0 || r.seconds < best_parallel_seconds)) {
      best_parallel_seconds = r.seconds;
      best_jobs = r.jobs;
    }
  }
  const double scaling_speedup =
      (serial_seconds > 0 && best_parallel_seconds > 0)
          ? serial_seconds / best_parallel_seconds
          : 1.0;
  const bool speedup_enforced = speedup_gates_enforced(best_jobs);
  const bool speedup_ok = !speedup_enforced || scaling_speedup >= 1.3;
  if (speedup_enforced) {
    std::printf(
        "\nscaling gate: jobs=1 %.3fs / jobs=%d %.3fs = %.2fx "
        "(need >= 1.3x)\n",
        serial_seconds, best_jobs, best_parallel_seconds, scaling_speedup);
  } else {
    std::printf(
        "\nscaling gate waived (%u hardware threads, best jobs=%d): "
        "%.2fx recorded, not asserted\n",
        hardware_threads(), best_jobs, scaling_speedup);
  }

  // --- 4. Optional --checked run: per-shard streaming checks inline -------
  // Every shard re-runs with a StreamingChecker riding its simulator hooks
  // (ShardOptions::streaming_check): the whole multi-tenant history is
  // verified linearizable *during* the PDES drain, and the traces must stay
  // byte-identical to the unchecked solo references -- the tap is
  // observation-only even under the window protocol's barrier scheduling.
  const bool checked_mode = has_flag(argc, argv, "--checked");
  bool checked_ok = true;
  double checked_seconds = 0;
  std::size_t checked_events = 0;
  std::size_t check_max_resident = 0;
  std::size_t check_max_window = 0;
  int check_failures = 0;
  if (checked_mode) {
    ShardOptions copt = opt;
    copt.streaming_check = true;
    ShardedSimulation checked_sim(copt);
    const int cjobs = jobs_list.back();
    const double t0 = now_seconds();
    const ShardRunReport creport = checked_sim.run(cjobs);
    checked_seconds = now_seconds() - t0;
    checked_events = creport.total_events;
    check_failures = creport.check_failures;
    std::size_t cmismatches = 0;
    bool all_checked = true;
    for (const ShardResult& shard : creport.shards) {
      if (shard.trace_hash !=
          reference[static_cast<std::size_t>(shard.shard)]) {
        ++cmismatches;
      }
      all_checked = all_checked && shard.checked && shard.check_ok;
      check_max_resident = std::max(check_max_resident,
                                    shard.check_max_resident);
      check_max_window = std::max(check_max_window, shard.check_max_window);
    }
    checked_ok = creport.aborted == 0 && cmismatches == 0 && all_checked &&
                 check_failures == 0;
    std::printf(
        "\nchecked run (jobs=%d): %.3fs, %d/%zu shards checked, %d failures, "
        "peak %zu resident states / %zu window ops per shard, traces %s\n",
        cjobs, checked_seconds, creport.checked, creport.shards.size(),
        check_failures, check_max_resident, check_max_window,
        cmismatches == 0 ? "byte-identical to solo references"
                         : "DIVERGED FROM REFERENCES");
  }

  // --- 5. JSON merge ------------------------------------------------------
  const TimedRun& best = *std::min_element(
      runs.begin(), runs.end(),
      [](const TimedRun& a, const TimedRun& b) { return a.seconds < b.seconds; });
  const double allocs_per_op =
      best.report.total_ops > 0
          ? static_cast<double>(best.allocs) /
                static_cast<double>(best.report.total_ops)
          : 0.0;
  const bool allocs_ok = !alloc_counting_enabled() || allocs_per_op <= 1.0;
  if (alloc_counting_enabled()) {
    std::printf("\nalloc gate: %.3f heap allocs/op in the jobs=%d run "
                "(need <= 1)\n",
                allocs_per_op, best.jobs);
  }
  JsonReport json(parse_flag(argc, argv, "--json", "BENCH_perf.json"));
  json.set("shard_count", static_cast<std::uint64_t>(opt.shards));
  json.set("shard_total_ops",
           static_cast<std::uint64_t>(best.report.total_ops));
  json.set("shard_total_events",
           static_cast<std::uint64_t>(best.report.total_events));
  json.set("shard_windows", static_cast<std::uint64_t>(best.report.windows));
  json.set("shard_beacons", static_cast<std::uint64_t>(best.report.beacons));
  json.set("shard_events_per_s",
           best.seconds > 0 ? best.report.total_events / best.seconds : 0.0);
  json.set("shard_ops_per_s",
           best.seconds > 0 ? best.report.total_ops / best.seconds : 0.0);
  json.set("shard_solo_reference_s", ref_seconds);
  for (const TimedRun& r : runs) {
    json.set("shard_run_s_jobs" + std::to_string(r.jobs), r.seconds);
  }
  json.set("shard_scaling_speedup", scaling_speedup);
  // *_speedup_threads sibling of shard_scaling_speedup, required by
  // tools/check_bench_schema.sh.
  json.set("shard_scaling_speedup_threads", hardware_threads());
  json.set("shard_speedup_gate_enforced", speedup_enforced);
  json.set("shard_identity_ok", identity_ok);
  // Allocation picture of the best run (gated above).  Per-run heap allocs
  // are per-shard setup (each shard worker instantiates its own PoolSet);
  // the steady-state-zero contract itself is proven by test_alloc_free,
  // this records the whole-run footprint per op.
  json.set("shard_allocs_measured", alloc_counting_enabled());
  json.set("shard_allocs_run_total", best.allocs);
  json.set("shard_allocs_per_op", allocs_per_op);
  json.set("shard_minflt", static_cast<std::uint64_t>(best.minflt));
  json.set("shard_peak_rss_mib", peak_rss);
  if (checked_mode) {
    json.set("shard_checked_run_s", checked_seconds);
    json.set("shard_checked_events_per_s",
             checked_seconds > 0 ? checked_events / checked_seconds : 0.0);
    json.set("shard_check_failures", check_failures);
    json.set("shard_check_max_resident_states",
             static_cast<std::uint64_t>(check_max_resident));
    json.set("shard_check_max_window_ops",
             static_cast<std::uint64_t>(check_max_window));
    json.set("shard_checked_ok", checked_ok);
  }
  if (!json.write()) {
    std::printf("warning: could not write %s\n", json.path().c_str());
  } else {
    std::printf("merged shard_* keys into %s\n", json.path().c_str());
  }

  return finish(all_complete && identity_ok && speedup_ok && checked_ok &&
                allocs_ok);
}
