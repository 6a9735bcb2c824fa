#include "core/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/pool_set.h"

#include "types/array_type.h"
#include "types/queue_type.h"
#include "types/register_type.h"
#include "types/set_type.h"
#include "types/stack_type.h"
#include "types/tree_type.h"

namespace linbound {
namespace {

constexpr std::int64_t kValueDomain = 10;

/// Pick one of the three op groups according to the mix weights.
enum class Group { kAccessor, kMutator, kOther };

Group pick_group(Rng& rng, const OpMix& mix) {
  const int total = mix.accessors + mix.mutators + mix.others;
  const std::int64_t roll = rng.uniform(0, total - 1);
  if (roll < mix.accessors) return Group::kAccessor;
  if (roll < mix.accessors + mix.mutators) return Group::kMutator;
  return Group::kOther;
}

std::int64_t small_value(Rng& rng) { return rng.uniform(0, kValueDomain - 1); }

}  // namespace

std::vector<Operation> random_register_ops(Rng& rng, int count, const OpMix& mix) {
  std::vector<Operation> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    switch (pick_group(rng, mix)) {
      case Group::kAccessor:
        out.push_back(reg::read());
        break;
      case Group::kMutator:
        out.push_back(rng.chance(0.5) ? reg::write(small_value(rng))
                                      : reg::increment(rng.uniform(1, 3)));
        break;
      case Group::kOther:
        out.push_back(rng.chance(0.5)
                          ? reg::rmw(small_value(rng))
                          : reg::cas(small_value(rng), small_value(rng)));
        break;
    }
  }
  return out;
}

std::vector<Operation> random_queue_ops(Rng& rng, int count, const OpMix& mix) {
  std::vector<Operation> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    switch (pick_group(rng, mix)) {
      case Group::kAccessor:
        out.push_back(rng.chance(0.7) ? queue_ops::peek() : queue_ops::size());
        break;
      case Group::kMutator:
        out.push_back(queue_ops::enqueue(small_value(rng)));
        break;
      case Group::kOther:
        out.push_back(queue_ops::dequeue());
        break;
    }
  }
  return out;
}

std::vector<Operation> random_stack_ops(Rng& rng, int count, const OpMix& mix) {
  std::vector<Operation> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    switch (pick_group(rng, mix)) {
      case Group::kAccessor:
        out.push_back(rng.chance(0.7) ? stack_ops::peek() : stack_ops::size());
        break;
      case Group::kMutator:
        out.push_back(stack_ops::push(small_value(rng)));
        break;
      case Group::kOther:
        out.push_back(stack_ops::pop());
        break;
    }
  }
  return out;
}

std::vector<Operation> random_set_ops(Rng& rng, int count, const OpMix& mix) {
  std::vector<Operation> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    switch (pick_group(rng, mix)) {
      case Group::kAccessor:
        out.push_back(rng.chance(0.7) ? set_ops::contains(small_value(rng))
                                      : set_ops::size());
        break;
      case Group::kMutator:
      case Group::kOther:  // sets have no OOP operations; use a mutator
        out.push_back(rng.chance(0.6) ? set_ops::insert(small_value(rng))
                                      : set_ops::erase(small_value(rng)));
        break;
    }
  }
  return out;
}

std::vector<Operation> random_tree_ops(Rng& rng, int count, const OpMix& mix) {
  std::vector<Operation> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    switch (pick_group(rng, mix)) {
      case Group::kAccessor:
        out.push_back(rng.chance(0.5) ? tree_ops::search(small_value(rng))
                                      : tree_ops::depth());
        break;
      case Group::kMutator:
      case Group::kOther: {  // trees have no OOP operations; use a mutator
        const double roll = rng.uniform01();
        if (roll < 0.6) {
          out.push_back(tree_ops::insert(rng.uniform(1, kValueDomain - 1),
                                         rng.uniform(0, kValueDomain - 1)));
        } else if (roll < 0.8) {
          out.push_back(tree_ops::remove_leaf(rng.uniform(1, kValueDomain - 1)));
        } else {
          out.push_back(tree_ops::erase(rng.uniform(1, kValueDomain - 1)));
        }
        break;
      }
    }
  }
  return out;
}

HeavyTrafficWorkload::HeavyTrafficWorkload(Simulator& sim,
                                           HeavyTrafficOptions options)
    : sim_(sim), opt_(std::move(options)) {
  if (opt_.clients < 1) throw std::invalid_argument("HeavyTraffic: no clients");
  if (opt_.min_gap < 1) {
    throw std::invalid_argument(
        "HeavyTraffic: min_gap must be positive (the model allows one "
        "pending operation per process; see HeavyTrafficOptions::min_gap)");
  }
  if (opt_.jitter < 0) throw std::invalid_argument("HeavyTraffic: negative jitter");
  if (opt_.batch == 0) opt_.batch = 1;
  if (opt_.first_client < 0) {
    throw std::invalid_argument("HeavyTraffic: negative first_client");
  }
  const SplitRng root(opt_.seed);
  rngs_.reserve(static_cast<std::size_t>(opt_.clients));
  next_time_.reserve(static_cast<std::size_t>(opt_.clients));
  for (int c = 0; c < opt_.clients; ++c) {
    rngs_.push_back(root.stream(static_cast<std::uint64_t>(c)));
    // Stagger the first arrivals across one mean gap so the clients do not
    // start in lockstep.
    next_time_.push_back(HeavyTrafficOptions::kStartTime +
                         rngs_.back().uniform(0, opt_.min_gap + opt_.jitter));
  }
}

void HeavyTrafficWorkload::arm() {
  const std::size_t msgs_per_op = opt_.messages_per_op
                                      ? opt_.messages_per_op
                                      : static_cast<std::size_t>(opt_.clients);
  // Pre-reserve the hot-loop storage: operation and message records for the
  // whole run, queue capacity for event_hint() pending events, and (when
  // sized) the arena and timer-slot pools that make the steady state
  // allocation-free.
  PoolSet pools;
  pools.ops = opt_.total_ops;
  pools.messages = opt_.total_ops * msgs_per_op;
  pools.events = event_hint();
  pools.payload_bytes = opt_.total_ops * opt_.payload_bytes_per_op;
  pools.timer_slots = opt_.timer_slots_per_process;
  pools.arm(sim_);
  schedule_batch();
}

std::size_t HeavyTrafficWorkload::event_hint() const {
  // In-flight headroom is 1024, or one burst when the run is smaller: a few
  // hundred arrivals keep a few dozen events in flight.
  const std::size_t burst = std::min(opt_.batch, opt_.total_ops);
  return 2 * burst + std::min<std::size_t>(1024, burst);
}

void HeavyTrafficWorkload::schedule_batch() {
  std::size_t issued = 0;
  while (issued < opt_.batch && scheduled_ < opt_.total_ops) {
    // Next arrival across the clients in global time order (ties by client
    // id): with at most a few dozen clients a linear scan beats any heap.
    int client = 0;
    for (int c = 1; c < opt_.clients; ++c) {
      if (next_time_[static_cast<std::size_t>(c)] <
          next_time_[static_cast<std::size_t>(client)]) {
        client = c;
      }
    }
    const auto ci = static_cast<std::size_t>(client);
    Rng& rng = rngs_[ci];
    const Tick t = next_time_[ci];
    const bool accessor = rng.uniform(0, 1) == 0;
    sim_.invoke_at(t, static_cast<ProcessId>(opt_.first_client + client),
                   accessor ? reg::read() : reg::write(small_value(rng)));
    next_time_[ci] = t + opt_.min_gap +
                     (opt_.jitter > 0 ? rng.uniform(0, opt_.jitter) : 0);
    last_time_ = t;
    ++scheduled_;
    ++issued;
  }
  if (scheduled_ < opt_.total_ops) {
    // Chain the next burst at this burst's horizon: every remaining arrival
    // is at t >= last_time_, so nothing is ever scheduled into the past.
    sim_.call_at(last_time_, [this] { schedule_batch(); });
  }
}

std::vector<std::size_t> zipfian_shard_loads(int shards, std::size_t total_ops,
                                             double s, std::uint64_t seed) {
  if (shards < 1) throw std::invalid_argument("zipfian_shard_loads: no shards");
  if (s < 0) throw std::invalid_argument("zipfian_shard_loads: negative exponent");
  const auto n = static_cast<std::size_t>(shards);
  // Seed-shuffled rank permutation: rank r (popularity 1/(r+1)^s) is
  // assigned to shard perm[r], so the hot shards land at seed-dependent
  // positions.  Fisher-Yates with a dedicated stream keeps the permutation
  // a pure function of (shards, seed).
  std::vector<int> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<int>(i);
  Rng shuffle = SplitRng(seed).stream(0x5a1f);
  for (std::size_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        shuffle.uniform(0, static_cast<std::int64_t>(i)));
    std::swap(perm[i], perm[j]);
  }
  std::vector<double> weight(n);
  double mass = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
    mass += weight[r];
  }
  // Largest-remainder apportionment: floors first, then the leftover ops go
  // to the largest fractional parts (ties to the lower rank, so the result
  // is deterministic), guaranteeing the loads sum to exactly total_ops.
  std::vector<std::size_t> loads(n, 0);
  std::vector<std::pair<double, std::size_t>> remainder(n);
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const double share = static_cast<double>(total_ops) * weight[r] / mass;
    const auto floor_share = static_cast<std::size_t>(share);
    loads[static_cast<std::size_t>(perm[r])] = floor_share;
    assigned += floor_share;
    remainder[r] = {share - static_cast<double>(floor_share), r};
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t k = 0; assigned < total_ops; ++k, ++assigned) {
    loads[static_cast<std::size_t>(perm[remainder[k % n].second])] += 1;
  }
  return loads;
}

std::vector<Operation> random_array_ops(Rng& rng, int count, const OpMix& mix,
                                        int array_size) {
  std::vector<Operation> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::int64_t idx = rng.uniform(1, array_size);
    switch (pick_group(rng, mix)) {
      case Group::kAccessor:
        out.push_back(array_ops::get(idx));
        break;
      case Group::kMutator:
        out.push_back(array_ops::put(idx, small_value(rng)));
        break;
      case Group::kOther:
        out.push_back(array_ops::update_next(idx, small_value(rng)));
        break;
    }
  }
  return out;
}

}  // namespace linbound
