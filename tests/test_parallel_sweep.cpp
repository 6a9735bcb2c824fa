// Serial-equals-parallel regression for every sweep in the harness: the
// ParallelSweepExecutor (common/parallel.h) must produce byte-identical
// results at any --jobs value, because each grid cell is an independent
// deterministic simulation and aggregation happens serially in canonical
// order.  A divergence here means a cell picked up state from outside its
// own seed derivation -- a determinism bug, not a tolerance issue.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/workload.h"
#include "harness/churn_sweep.h"
#include "harness/experiment.h"
#include "harness/fault_sweep.h"
#include "harness/mode_sweep.h"
#include "types/register_type.h"

namespace linbound {
namespace {

WorkloadFactory register_workload(int ops) {
  const OpMix mix{2, 2, 2};
  return [=](ProcessId, Rng& rng) { return random_register_ops(rng, ops, mix); };
}

void expect_same(const LatencySummary& a, const LatencySummary& b) {
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.samples, b.samples);  // order-sensitive on purpose
}

void expect_same(const LatencyReport& a, const LatencyReport& b) {
  ASSERT_EQ(a.by_code.size(), b.by_code.size());
  for (const auto& [code, summary] : a.by_code) {
    ASSERT_TRUE(b.by_code.count(code));
    expect_same(summary, b.by_code.at(code));
  }
  ASSERT_EQ(a.by_class.size(), b.by_class.size());
  for (const auto& [cls, summary] : a.by_class) {
    ASSERT_TRUE(b.by_class.count(cls));
    expect_same(summary, b.by_class.at(cls));
  }
}

TEST(ParallelSweep, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(-3), 1);
  EXPECT_EQ(resolve_jobs(-1), 1);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
  // 0 = one per hardware thread; hardware-dependent but at least serial and
  // never past the clamp.
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_LE(resolve_jobs(0), kMaxJobs);
  // Absurd requests clamp instead of spawning a thread army.
  EXPECT_EQ(resolve_jobs(kMaxJobs), kMaxJobs);
  EXPECT_EQ(resolve_jobs(kMaxJobs + 1), kMaxJobs);
  EXPECT_EQ(resolve_jobs(1 << 20), kMaxJobs);
}

TEST(ParallelSweep, MapMatchesSerialAndPropagatesExceptions) {
  const ParallelSweepExecutor serial(1);
  const ParallelSweepExecutor parallel(4);
  auto square = [](std::size_t i) { return static_cast<int>(i * i); };
  EXPECT_EQ(serial.map<int>(37, square), parallel.map<int>(37, square));

  EXPECT_THROW(parallel.map<int>(8,
                                 [](std::size_t i) -> int {
                                   if (i == 5) throw std::runtime_error("boom");
                                   return 0;
                                 }),
               std::runtime_error);
}

TEST(ParallelSweep, ReplicaSweepByteIdentical) {
  auto model = std::make_shared<RegisterModel>();
  const WorkloadFactory workload = register_workload(6);

  SweepOptions options;
  options.n = 3;
  options.seeds = 3;
  options.jobs = 1;
  const SweepResult serial = run_replica_sweep(model, workload, options);
  options.jobs = 4;
  const SweepResult parallel = run_replica_sweep(model, workload, options);

  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.linearizable_runs, parallel.linearizable_runs);
  EXPECT_EQ(serial.failures, parallel.failures);
  expect_same(serial.latency, parallel.latency);
}

TEST(ParallelSweep, FaultSweepByteIdentical) {
  auto model = std::make_shared<RegisterModel>();
  const WorkloadFactory workload = register_workload(4);

  FaultSweepOptions options;
  options.n = 3;
  options.seeds = 3;
  options.jobs = 1;
  const FaultSweepResult serial = run_fault_sweep(model, workload, options);
  options.jobs = 4;
  const FaultSweepResult parallel = run_fault_sweep(model, workload, options);

  EXPECT_EQ(serial.table(), parallel.table());
  EXPECT_EQ(serial.ok(), parallel.ok());
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].notes, parallel.cells[i].notes);
  }
}

TEST(ParallelSweep, ChurnSweepByteIdentical) {
  auto model = std::make_shared<RegisterModel>();
  const WorkloadFactory workload = register_workload(4);

  ChurnSweepOptions options;
  options.n = 3;
  options.seeds = 3;
  options.ops_per_client = 4;
  options.recoverable.link.max_attempts = 3;
  options.jobs = 1;
  const ChurnSweepResult serial = run_churn_sweep(model, workload, options);
  options.jobs = 4;
  const ChurnSweepResult parallel = run_churn_sweep(model, workload, options);

  EXPECT_EQ(serial.table(), parallel.table());
  EXPECT_EQ(serial.ok(), parallel.ok());
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].notes, parallel.cells[i].notes);
  }
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

/// Per-opcode sample counts, extremes and totals, one line per code.
void dump_latency(std::ostringstream& os, const LatencyReport& latency) {
  for (const auto& [code, summary] : latency.by_code) {
    os << "lat " << code << " n=" << summary.count << " min=" << summary.min
       << " max=" << summary.max << " total=" << summary.total << "\n";
  }
}

void dump_strings(std::ostringstream& os, const std::vector<std::string>& lines) {
  for (const std::string& line : lines) os << line << "\n";
}

std::uint64_t dump_hash(const SweepResult& r) {
  std::ostringstream os;
  os << r.runs << " " << r.linearizable_runs << " " << r.all_linearizable()
     << "\n";
  dump_strings(os, r.failures);
  dump_latency(os, r.latency);
  return fnv1a(os.str());
}

// Pins every sweep's printed output at a small config: table, notes and
// failures, ok() and the latency counts, extremes and totals.  Changes to the
// run recipe (scripts, seed derivation, grid order, run-then-check) must leave
// these hashes unchanged; a changed hash means a sweep's output changed.
TEST(SweepOutputs, Pinned) {
  auto model = std::make_shared<RegisterModel>();
  const WorkloadFactory workload = register_workload(4);

  SweepOptions grid;
  grid.n = 3;
  grid.seeds = 2;
  grid.jobs = 2;
  EXPECT_EQ(dump_hash(run_replica_sweep(model, workload, grid)),
            15719794302163915732ull);
  EXPECT_EQ(dump_hash(run_centralized_sweep(model, workload, grid)),
            5269256586971014340ull);
  EXPECT_EQ(dump_hash(run_tob_sweep(model, workload, grid)),
            9541949502928754062ull);

  const auto fault_dump = [&](const FaultSweepOptions& options) {
    const FaultSweepResult r = run_fault_sweep(model, workload, options);
    std::ostringstream os;
    os << r.table() << r.ok() << "\n";
    dump_latency(os, r.clean_latency);
    for (const FaultCellResult& cell : r.cells) {
      dump_strings(os, cell.notes);
      dump_latency(os, cell.hardened_latency);
    }
    return fnv1a(os.str());
  };
  {
    FaultSweepOptions options;
    options.n = 3;
    options.seeds = 2;
    options.jobs = 2;
    EXPECT_EQ(fault_dump(options), 4615724423988426839ull);
    // Non-default link parameters (test_fault_sweep.cpp's): the hardened
    // runs must carry them, not the defaults.
    options.hardened.max_attempts = 4;
    EXPECT_EQ(fault_dump(options), 17080872721129779908ull);
  }
  {
    ChurnSweepOptions options;
    options.n = 3;
    options.seeds = 2;
    options.ops_per_client = 4;
    options.recoverable.link.max_attempts = 3;
    options.jobs = 2;
    const ChurnSweepResult r = run_churn_sweep(model, workload, options);
    std::ostringstream os;
    os << r.table() << r.ok() << "\n";
    for (const ChurnCellResult& cell : r.cells) dump_strings(os, cell.notes);
    EXPECT_EQ(fnv1a(os.str()), 4892241894882357308ull);
  }
  {
    ModeSweepOptions options;
    options.n = 3;
    options.seeds = 1;
    options.jobs = 2;
    const ModeSweepResult r = run_mode_sweep(model, workload, options);
    std::ostringstream os;
    os << r.table() << r.ok() << r.fixed_mode_stalled_somewhere() << "\n";
    for (const ModeCellResult& cell : r.cells) {
      dump_strings(os, cell.notes);
      for (const Tick t : cell.switch_latencies) os << t << " ";
      os << "\n";
    }
    EXPECT_EQ(fnv1a(os.str()), 1444676121184984255ull);
  }
}

}  // namespace
}  // namespace linbound
