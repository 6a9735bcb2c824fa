// Workload generation: deterministic random operation streams per data
// type (used by the integration tests and the latency benches), plus the
// open-loop HeavyTrafficWorkload generator behind bench_throughput.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "spec/operation.h"

namespace linbound {

/// Mix weights for a generated stream; weights of opcodes a type does not
/// have are ignored by that type's generator.
struct OpMix {
  int accessors = 1;  ///< read / peek / contains / search / depth / get
  int mutators = 1;   ///< write / enqueue / push / insert / erase / put
  int others = 1;     ///< rmw / dequeue / pop / update_next
};

/// Random streams over small value domains (values 0..9) so that histories
/// exercise conflicts rather than wandering a huge state space.
std::vector<Operation> random_register_ops(Rng& rng, int count, const OpMix& mix);
std::vector<Operation> random_queue_ops(Rng& rng, int count, const OpMix& mix);
std::vector<Operation> random_stack_ops(Rng& rng, int count, const OpMix& mix);
std::vector<Operation> random_set_ops(Rng& rng, int count, const OpMix& mix);
std::vector<Operation> random_tree_ops(Rng& rng, int count, const OpMix& mix);

/// Configuration for HeavyTrafficWorkload (see below).  The effective
/// per-client arrival rate is 1 / (min_gap + jitter/2) operations per tick,
/// i.e. clients / (min_gap + jitter/2) system-wide.  Arrivals start at
/// kStartTime and are an even mix of register reads and writes.
struct HeavyTrafficOptions {
  static constexpr Tick kStartTime = 1000;  ///< earliest possible arrival

  int clients = 4;                 ///< number of invoking processes
  /// Process id of the first client; arrivals target processes
  /// first_client .. first_client + clients - 1.  The sharded runtime
  /// (src/shard/shard.h) points this past the replica group so a shard's
  /// clients are dedicated invoker processes.
  int first_client = 0;
  std::size_t total_ops = 1'000'000;
  /// Per-client inter-arrival floor.  Open-loop scheduling does not wait
  /// for responses, but the model allows one pending operation per process
  /// (the simulator throws on overlap), so this must exceed the worst-case
  /// response bound of the system under test (e.g. d + eps for Algorithm 1,
  /// ~2d for the centralized/TOB baselines; bench_throughput uses 4d).
  Tick min_gap = 4000;
  Tick jitter = 0;                 ///< extra uniform spacing in [0, jitter]
  /// Root seed; each client draws from SplitRng(seed).stream(client_index),
  /// so client c's schedule is a pure function of (seed, c) -- independent
  /// of how many clients run beside it.
  std::uint64_t seed = 0x7ea4f'f1cULL;
  /// Arrivals scheduled per scheduling burst: the generator issues this
  /// many invoke_at calls, then chains one callback at the burst's last
  /// arrival time to schedule the next burst, keeping the future-event
  /// list's footprint O(batch) instead of O(total_ops).  The schedule is a
  /// pure function of this configuration, batch size included.
  std::size_t batch = 4096;
  /// Trace::messages reservation hint per operation; 0 = clients (sized
  /// for Algorithm 1's broadcast per operation).
  std::size_t messages_per_op = 0;
  /// Whole-run arena pre-reserve per operation (bytes): covers every
  /// payload the op pipeline builds per op (broadcast, link frames, acks,
  /// destructor nodes).  0 leaves the arena to on-demand chunk growth (the
  /// historical behavior); set it to make the steady-state send path
  /// allocation-free (sim/pool_set.h) -- ~256 covers plain Algorithm 1,
  /// ~1024 the hardened link with n = 4.
  std::size_t payload_bytes_per_op = 0;
  /// Per-process timer-slot pool to pre-size; 0 = demand growth.
  std::size_t timer_slots_per_process = 0;
  /// Ignored; kept only because perfbench/harness.cpp sets it.
  std::size_t events_per_tick = 0;
};

/// Apportion `total_ops` operations across `shards` shards with a zipfian
/// popularity profile of exponent `s` (s = 0 gives a uniform split): shard
/// popularity ranks are a seed-shuffled permutation of the shard ids (so the
/// hot shard is not always shard 0) and fractional shares are resolved by
/// largest remainder, so the result always sums to exactly `total_ops`.
/// Deterministic in (shards, total_ops, s, seed).
std::vector<std::size_t> zipfian_shard_loads(int shards, std::size_t total_ops,
                                             double s, std::uint64_t seed);

/// Open-loop traffic at a configurable arrival rate: every arrival time is
/// fixed up front from the seed (never response-driven, unlike the
/// closed-loop WorkloadDriver), with an even read/write register mix.  arm()
/// pre-reserves Trace::ops / Trace::messages / EventQueue storage from the
/// size hints and schedules the first burst; the rest of the schedule
/// installs itself as the run progresses.  Deterministic: one
/// configuration, one schedule, byte-identical traces.
class HeavyTrafficWorkload {
 public:
  HeavyTrafficWorkload(Simulator& sim, HeavyTrafficOptions options);

  /// Reserve storage and schedule the first burst.  Call once, before
  /// Simulator::run (before or after start()).
  void arm();

  /// The peak pending-event count arm() reserves the queue for: one
  /// scheduling burst, the next burst chained behind it and headroom for
  /// in-flight deliveries and timers.  A caller that pushes events before
  /// arm() (churn windows, start()) passes it to Simulator::reserve first,
  /// so the queue sizes its calendar from it at its first push.
  std::size_t event_hint() const;

  std::size_t scheduled() const { return scheduled_; }
  /// Arrival time of the latest scheduled invocation.
  Tick last_arrival() const { return last_time_; }

 private:
  void schedule_batch();

  Simulator& sim_;
  HeavyTrafficOptions opt_;
  std::vector<Rng> rngs_;        // per client
  std::vector<Tick> next_time_;  // per client: next arrival
  std::size_t scheduled_ = 0;
  Tick last_time_ = 0;
};

}  // namespace linbound
