// Robustness sweep: Algorithm 1 -- stock and hardened with the reliable
// link of core/hardened_replica.h -- under injected message loss,
// duplication and delay spikes (sim/fault_injection.h).
//
// Three claims, checked per fault cell over the seeds:
//   1. hardened stays linearizable (the link restores the model
//      assumptions the faults break, at the cost of waits computed from
//      the widened effective delivery bound d_eff);
//   2. stock Algorithm 1 is flagged under message loss -- the paper's
//      reliable-delivery assumption is load-bearing;
//   3. every failed run is attributed by the assumption monitor to a
//      concrete violated assumption (no unexplained failures).
#include "bench_common.h"
#include "core/workload.h"
#include "harness/fault_sweep.h"
#include "types/register_type.h"

using namespace linbound;
using namespace linbound::bench;

int main(int argc, char** argv) {
  print_header("Fault sweep: stock vs hardened Algorithm 1 under injected faults");
  const SystemTiming t = default_timing();

  FaultSweepOptions options;
  options.n = kN;
  options.timing = t;
  options.x = 0;
  options.seeds = 6;
  options.jobs = parse_jobs(argc, argv);

  const OpMix mix{2, 2, 2};
  auto model = std::make_shared<RegisterModel>();
  WorkloadFactory workload = [&](ProcessId, Rng& rng) {
    return random_register_ops(rng, 10, mix);
  };

  const FaultSweepResult result = run_fault_sweep(model, workload, options);

  std::printf("%s\n", result.table().c_str());

  const HardenedParams hardened = options.hardened;
  std::printf(
      "hardened link: first timeout %lld, max %d attempts, backoff x%d;\n"
      "effective delivery bound d_eff = %lld (vs d = %lld) -- the price of\n"
      "loss tolerance, visible in the worst-latency column.\n\n",
      static_cast<long long>(hardened.first_timeout_for(t)),
      hardened.max_attempts, HardenedParams::kBackoff,
      static_cast<long long>(hardened.effective_d(t)),
      static_cast<long long>(t.d));

  for (const FaultCellResult& cell : result.cells) {
    for (const std::string& note : cell.notes) {
      std::printf("  %s\n", note.c_str());
    }
  }

  std::printf(
      "\nclaim 1 (hardened linearizable unless its link gave up): %s\n"
      "claim 2 (stock flagged under message loss):              %s\n"
      "claim 3 (every failure attributed):                      %s\n",
      result.hardened_all_linearizable() ? "holds" : "VIOLATED",
      result.unhardened_flagged_under_drops() ? "holds" : "VIOLATED",
      result.all_failures_attributed() ? "holds" : "VIOLATED");

  return finish(result.ok());
}
