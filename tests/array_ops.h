// Random ArrayModel operation streams for the tests that fuzz and sweep the
// array type: a uniform index in [1, array_size], values 0..9, and the op
// group drawn with the mix weights.  No program runs an array workload, so
// the generator lives beside the tests rather than in core/workload.h.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/workload.h"
#include "types/array_type.h"

namespace linbound {

inline std::vector<Operation> random_array_ops(Rng& rng, int count,
                                               const OpMix& mix,
                                               int array_size) {
  const int total = mix.accessors + mix.mutators + mix.others;
  std::vector<Operation> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::int64_t idx = rng.uniform(1, array_size);
    const std::int64_t roll = rng.uniform(0, total - 1);
    if (roll < mix.accessors) {
      out.push_back(array_ops::get(idx));
    } else if (roll < mix.accessors + mix.mutators) {
      out.push_back(array_ops::put(idx, rng.uniform(0, 9)));
    } else {
      out.push_back(array_ops::update_next(idx, rng.uniform(0, 9)));
    }
  }
  return out;
}

}  // namespace linbound
