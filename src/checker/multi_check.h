// Per-shard linearizability checking fanned over a worker pool.
//
// Linearizability composes per object: a multi-tenant run is correct iff
// every shard's history is independently linearizable against the shared
// object model, so a sharded run (src/shard) is checked by fanning the
// existing checker over the shards with common/parallel.h.  Each shard's
// check is a pure function of its trace, results are aggregated in
// canonical shard order, and every verdict/witness/explanation is
// byte-identical to checking that shard alone -- the checker-side mirror of
// the sharded runtime's per-shard trace determinism contract.
#pragma once

#include <cstddef>
#include <vector>

#include "checker/lin_checker.h"
#include "checker/streaming_checker.h"
#include "sim/trace.h"
#include "spec/object_model.h"

namespace linbound {

/// One shard's verdict: the CheckResult plus pending accounting.
struct ShardCheck {
  int shard = -1;
  CheckResult result;
  std::size_t ops = 0;      ///< completed operations checked
  std::size_t pending = 0;  ///< dispatched-but-unanswered invocations
};

struct MultiCheckOptions {
  /// Per-shard checker configuration, for either route.
  CheckOptions check;
  /// Worker threads across shards (resolve_jobs semantics).
  int jobs = 1;
  /// Route each shard's check through the streaming checker (replayed from
  /// the trace) instead of the offline one.  Verdict and witness are
  /// identical either way (the streaming determinism contract); memory per
  /// shard drops from O(history) to O(open window).
  bool streaming = false;
};

struct MultiCheckReport {
  std::vector<ShardCheck> shards;  ///< canonical shard order
  bool all_ok = true;              ///< every shard linearizable
  std::size_t total_ops = 0;
  std::size_t total_pending = 0;

  /// First failing shard id, or -1 when all_ok.
  int first_failure() const;
};

/// Check every trace against `model`, one checker run per shard, fanned
/// over `options.jobs` workers.  Pending invocations (stalled or aborted
/// shards) go through the pending-aware checker overloads.
MultiCheckReport check_shards(const ObjectModel& model,
                              const std::vector<const Trace*>& traces,
                              const MultiCheckOptions& options = {});

}  // namespace linbound
