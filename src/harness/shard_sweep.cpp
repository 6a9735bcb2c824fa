#include "harness/shard_sweep.h"

#include <sstream>

#include "common/parallel.h"

namespace linbound {

std::string ShardSweepReport::summary() const {
  std::ostringstream os;
  os << run.shards.size() << " shards, " << run.total_ops << " ops, "
     << run.total_events << " events, " << run.windows << " windows, "
     << run.beacons << " beacons";
  if (!reference_hashes.empty()) {
    os << "; identity "
       << (identity_failures.empty()
               ? "ok"
               : std::to_string(identity_failures.size()) + " FAILED");
  }
  if (!checks.shards.empty()) {
    os << "; checks " << (checks.all_ok ? "ok" : "FAILED");
  }
  os << "; availability " << availability;
  if (run.aborted) os << " (" << run.aborted << " aborted)";
  return os.str();
}

ShardSweepReport run_shard_sweep(const ShardSweepOptions& options) {
  ShardSweepReport report;
  ShardedSimulation sim(options.shard);
  report.run = sim.run(options.jobs);
  const std::size_t shards = report.run.shards.size();

  if (options.verify_identity) {
    // References are themselves single-threaded per shard, but independent
    // of each other, so the pool recomputes them concurrently.
    const ParallelSweepExecutor exec(resolve_jobs(options.jobs));
    report.reference_hashes =
        exec.map<std::uint64_t>(shards, [&](std::size_t i) {
          return sim.run_solo(static_cast<int>(i)).trace_hash;
        });
    for (std::size_t i = 0; i < shards; ++i) {
      if (report.reference_hashes[i] != report.run.shards[i].trace_hash) {
        report.identity_failures.push_back(static_cast<int>(i));
      }
    }
  }

  if (options.check) {
    std::vector<const Trace*> traces;
    traces.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      traces.push_back(&sim.trace(static_cast<int>(i)));
    }
    MultiCheckOptions mc;
    mc.check = options.check_options;
    mc.jobs = options.jobs;
    report.checks = check_shards(sim.model(), traces, mc);
  }

  // Serial canonical-order aggregation, after the parallel phases: the
  // merged report is byte-identical at any --jobs value.
  int complete = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    report.latency.absorb(sim.model(), sim.trace(static_cast<int>(i)));
    if (report.run.shards[i].status == RunStatus::kComplete) ++complete;
  }
  report.availability =
      shards ? static_cast<double>(complete) / static_cast<double>(shards)
             : 1.0;
  return report;
}

}  // namespace linbound
