#include "checker/multi_check.h"

#include "checker/history.h"
#include "common/parallel.h"

namespace linbound {

int MultiCheckReport::first_failure() const {
  for (const ShardCheck& s : shards) {
    if (!s.result.ok) return s.shard;
  }
  return -1;
}

MultiCheckReport check_shards(const ObjectModel& model,
                              const std::vector<const Trace*>& traces,
                              const MultiCheckOptions& options) {
  const CheckOptions& check = options.check;
  const ParallelSweepExecutor exec(resolve_jobs(options.jobs));
  MultiCheckReport report;
  report.shards = exec.map<ShardCheck>(traces.size(), [&](std::size_t i) {
    ShardCheck out;
    out.shard = static_cast<int>(i);
    auto [history, pending] = history_with_pending(*traces[i]);
    out.ops = history.size();
    out.pending = pending.size();
    out.result = pending.empty()
                     ? check_linearizable(model, history, check)
                     : check_linearizable_with_pending(model, history,
                                                       pending, check);
    return out;
  });
  for (const ShardCheck& s : report.shards) {
    report.all_ok = report.all_ok && s.result.ok;
    report.total_ops += s.ops;
    report.total_pending += s.pending;
  }
  return report;
}

}  // namespace linbound
