// Closed-loop application driver (the paper's application layer).
//
// Each process runs a script: a list of operations invoked one at a time --
// the next operation is issued `think_time` after the previous response,
// honoring the model's one-pending-operation-per-process rule.
#pragma once

#include <functional>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "spec/operation.h"

namespace linbound {

struct ClientScript {
  ProcessId pid = kNoProcess;
  std::vector<Operation> ops;
  Tick start_time = 0;   ///< real time of the first invocation
  Tick think_time = 0;   ///< gap between a response and the next invocation
};

/// Produces the operation list for one client process in one run.
using WorkloadFactory =
    std::function<std::vector<Operation>(ProcessId pid, Rng& rng)>;

/// One script per process 0..n-1, each starting at t=1000: process p's
/// operations are ops(p, rng.split(p)), split in pid order.
std::vector<ClientScript> client_scripts(int n, Rng rng, Tick think_time,
                                         const WorkloadFactory& ops);

class WorkloadDriver {
 public:
  /// Installs the simulator's response and recovery hooks; at most one
  /// driver per simulator.  `on_response` / `on_recovery` (optional) are
  /// forwarded so callers can still observe completions and rejoins.
  /// `reissue_cut_ops` controls the retry-on-recovery behavior: leave it on
  /// for the synchronous algorithms (whose volatile state forgets a cut
  /// operation forever), turn it off for systems that answer cut operations
  /// themselves from durable state (the degraded-mode quorum backend) --
  /// there a client retry would race the late response and overlap two
  /// invocations on one process.
  WorkloadDriver(Simulator& sim, std::vector<ClientScript> scripts,
                 std::function<void(const OperationRecord&)> on_response = {},
                 std::function<void(ProcessId, Tick)> on_recovery = {},
                 bool reissue_cut_ops = true);

  /// Schedule the first invocation of every script.  Call after
  /// Simulator::start() is not required -- events are queued either way.
  void arm();

  /// Number of operations re-issued after a crash cut them.
  int reissued() const { return reissued_; }

 private:
  void handle_response(const OperationRecord& rec);

  /// A real client retries when its replica comes back: if `pid`'s current
  /// operation was invoked (or scheduled) before the crash and never
  /// answered, issue it again as a fresh invocation.  The cut attempt stays
  /// in the trace as a pending (or never-dispatched) record; the checkers
  /// accept the cut-and-reissue shape.  Invoked from the simulator's
  /// recovery hook.
  void reissue_cut(ProcessId pid, Tick now);

  Simulator& sim_;
  std::vector<ClientScript> scripts_;
  std::vector<std::size_t> next_op_;        // per script
  std::vector<ProcessId> script_of_proc_;   // process -> script index or -1
  /// Per script: token of the in-flight invocation (-1 when answered) and
  /// the real time it was scheduled for.
  std::vector<std::int64_t> inflight_token_;
  std::vector<Tick> inflight_sched_;
  int reissued_ = 0;
  bool reissue_cut_ops_ = true;
  std::function<void(const OperationRecord&)> on_response_;
  std::function<void(ProcessId, Tick)> on_recovery_;
};

}  // namespace linbound
