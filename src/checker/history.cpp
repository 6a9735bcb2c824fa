#include "checker/history.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "spec/composite.h"

namespace linbound {

History::History(std::vector<HistoryOp> ops) : ops_(std::move(ops)) { index(); }

History History::from_trace(const Trace& trace) {
  std::vector<HistoryOp> ops;
  ops.reserve(trace.ops.size());
  for (OperationRecord rec : trace.ops) {
    if (!rec.completed()) {
      throw std::invalid_argument("History::from_trace: operation token " +
                                  std::to_string(rec.token) +
                                  " has no response");
    }
    ops.push_back(HistoryOp{rec.proc, std::move(rec.op), std::move(rec.ret),
                            rec.invoke_time, rec.response_time});
  }
  return History(std::move(ops));
}

void History::index() {
  ProcessId max_pid = -1;
  for (const HistoryOp& op : ops_) {
    if (op.proc < 0) throw std::invalid_argument("history op without process");
    if (op.response < op.invoke) {
      throw std::invalid_argument("history op responds before invocation");
    }
    max_pid = std::max(max_pid, op.proc);
  }
  per_proc_.assign(static_cast<std::size_t>(max_pid + 1), {});
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    per_proc_[static_cast<std::size_t>(ops_[i].proc)].push_back(i);
  }
  for (auto& idxs : per_proc_) {
    std::sort(idxs.begin(), idxs.end(), [this](std::size_t a, std::size_t b) {
      return ops_[a].invoke < ops_[b].invoke;
    });
    // Validate the one-pending-op-per-process model constraint.
    for (std::size_t k = 1; k < idxs.size(); ++k) {
      if (ops_[idxs[k]].invoke < ops_[idxs[k - 1]].response) {
        throw std::invalid_argument(
            "history has overlapping operations within one process");
      }
    }
  }
}

const std::vector<std::size_t>& History::by_process(ProcessId pid) const {
  static const std::vector<std::size_t> kEmpty;
  if (pid < 0 || static_cast<std::size_t>(pid) >= per_proc_.size()) return kEmpty;
  return per_proc_[static_cast<std::size_t>(pid)];
}

std::pair<History, std::vector<PendingInvocation>> history_with_pending(
    const Trace& trace) {
  std::vector<HistoryOp> completed;
  std::vector<PendingInvocation> pending;
  for (OperationRecord rec : trace.ops) {
    if (rec.invoke_time == kNoTime) continue;  // never dispatched
    if (rec.completed()) {
      completed.push_back(HistoryOp{rec.proc, std::move(rec.op),
                                    std::move(rec.ret), rec.invoke_time,
                                    rec.response_time});
    } else {
      pending.push_back(
          PendingInvocation{rec.proc, std::move(rec.op), rec.invoke_time});
    }
  }
  return {History(std::move(completed)), std::move(pending)};
}

History restrict_history(const History& history, int k) {
  std::vector<HistoryOp> ops;
  for (const HistoryOp& op : history.ops()) {
    if (CompositeModel::slot_of(op.op) != k) continue;
    HistoryOp lowered = op;
    lowered.op = CompositeModel::lower(lowered.op);
    ops.push_back(std::move(lowered));
  }
  return History(std::move(ops));
}

std::vector<HistorySegment> segment_history(
    const History& history, const std::vector<PendingInvocation>& pending) {
  const std::vector<HistoryOp>& ops = history.ops();
  if (ops.empty()) return {};
  const std::size_t procs = static_cast<std::size_t>(history.process_count());

  std::vector<std::size_t> order(ops.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&ops](std::size_t a, std::size_t b) {
                     return ops[a].invoke < ops[b].invoke;
                   });

  Tick first_pending = kNoTime;
  for (const PendingInvocation& q : pending) {
    if (first_pending == kNoTime || q.invoke < first_pending) {
      first_pending = q.invoke;
    }
  }

  // Segment id per op: a new segment starts at invoke-ordered position k+1
  // when everything before it has responded strictly earlier and no pending
  // invocation has been issued yet.
  std::vector<std::size_t> seg_of(ops.size(), 0);
  std::size_t seg = 0;
  Tick max_response = ops[order[0]].response;
  for (std::size_t k = 1; k < order.size(); ++k) {
    const Tick next_invoke = ops[order[k]].invoke;
    if (max_response < next_invoke &&
        (first_pending == kNoTime || first_pending >= next_invoke)) {
      ++seg;
    }
    seg_of[order[k]] = seg;
    max_response = std::max(max_response, ops[order[k]].response);
  }

  std::vector<HistorySegment> segments(seg + 1);
  for (HistorySegment& s : segments) {
    s.begin.assign(procs, 0);
    s.end.assign(procs, 0);
    s.min_response = kNoTime;
  }
  // Per process the segment id is non-decreasing along by_process order
  // (invoke-sorted), so each segment owns one contiguous range.
  for (std::size_t p = 0; p < procs; ++p) {
    const std::vector<std::size_t>& idxs =
        history.by_process(static_cast<ProcessId>(p));
    std::size_t pos = 0;
    for (std::size_t si = 0; si < segments.size(); ++si) {
      segments[si].begin[p] = pos;
      while (pos < idxs.size() && seg_of[idxs[pos]] == si) ++pos;
      segments[si].end[p] = pos;
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    HistorySegment& s = segments[seg_of[i]];
    ++s.op_count;
    if (s.min_response == kNoTime || ops[i].response < s.min_response) {
      s.min_response = ops[i].response;
    }
  }
  return segments;
}

std::string History::to_string(const ObjectModel& model) const {
  std::ostringstream os;
  for (const HistoryOp& op : ops_) {
    os << "p" << op.proc << " [" << op.invoke << ", " << op.response << "] "
       << model.describe(OpInstance{op.op, op.ret}) << "\n";
  }
  return os.str();
}

}  // namespace linbound
