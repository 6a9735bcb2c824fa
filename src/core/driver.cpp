#include "core/driver.h"

#include <stdexcept>

namespace linbound {

std::vector<ClientScript> client_scripts(int n, Rng rng, Tick think_time,
                                         const WorkloadFactory& ops) {
  std::vector<ClientScript> scripts;
  scripts.reserve(static_cast<std::size_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    Rng client_rng = rng.split(static_cast<std::uint64_t>(pid));
    scripts.push_back(ClientScript{static_cast<ProcessId>(pid),
                                   ops(pid, client_rng), /*start_time=*/1000,
                                   think_time});
  }
  return scripts;
}

WorkloadDriver::WorkloadDriver(Simulator& sim, std::vector<ClientScript> scripts,
                               std::function<void(const OperationRecord&)> on_response,
                               std::function<void(ProcessId, Tick)> on_recovery,
                               bool reissue_cut_ops)
    : sim_(sim),
      scripts_(std::move(scripts)),
      reissue_cut_ops_(reissue_cut_ops),
      on_response_(std::move(on_response)),
      on_recovery_(std::move(on_recovery)) {
  next_op_.assign(scripts_.size(), 0);
  inflight_token_.assign(scripts_.size(), -1);
  inflight_sched_.assign(scripts_.size(), kNoTime);
  script_of_proc_.assign(static_cast<std::size_t>(sim_.process_count()), -1);
  for (std::size_t s = 0; s < scripts_.size(); ++s) {
    const ProcessId pid = scripts_[s].pid;
    if (pid < 0 || pid >= sim_.process_count()) {
      throw std::invalid_argument("ClientScript targets unknown process");
    }
    if (script_of_proc_[static_cast<std::size_t>(pid)] != -1) {
      throw std::invalid_argument("two scripts target the same process");
    }
    script_of_proc_[static_cast<std::size_t>(pid)] = static_cast<ProcessId>(s);
  }
  sim_.set_response_hook([this](const OperationRecord& rec) { handle_response(rec); });
  sim_.set_recovery_hook([this](ProcessId pid, Tick now) {
    reissue_cut(pid, now);
    if (on_recovery_) on_recovery_(pid, now);
  });
}

void WorkloadDriver::arm() {
  // Reserve the operation records for the whole run up front (closed-loop
  // scripts know their op counts exactly; recovery reissues are rare
  // extras).  Message/event totals depend on the algorithm under test, so
  // only the known-tight hint is passed.
  std::size_t total_ops = 0;
  for (const ClientScript& script : scripts_) total_ops += script.ops.size();
  sim_.reserve(/*ops=*/total_ops, /*messages=*/0, /*events=*/0);
  for (std::size_t s = 0; s < scripts_.size(); ++s) {
    const ClientScript& script = scripts_[s];
    if (script.ops.empty()) continue;
    next_op_[s] = 1;
    inflight_token_[s] =
        sim_.invoke_at(script.start_time, script.pid, script.ops.front());
    inflight_sched_[s] = script.start_time;
  }
}

void WorkloadDriver::handle_response(const OperationRecord& rec) {
  if (on_response_) on_response_(rec);
  const ProcessId script_idx = script_of_proc_.at(static_cast<std::size_t>(rec.proc));
  if (script_idx < 0) return;
  const auto s = static_cast<std::size_t>(script_idx);
  // A response to a token we are no longer waiting on (a pre-crash attempt
  // answered late from durable state after reissue_cut already retried it)
  // must not advance the script: the retry is the in-flight operation.
  if (rec.token != inflight_token_[s]) return;
  inflight_token_[s] = -1;
  if (next_op_[s] >= scripts_[s].ops.size()) return;
  const Operation& op = scripts_[s].ops[next_op_[s]];
  ++next_op_[s];
  const Tick at = sim_.now() + scripts_[s].think_time;
  inflight_token_[s] = sim_.invoke_at(at, rec.proc, op);
  inflight_sched_[s] = at;
}

void WorkloadDriver::reissue_cut(ProcessId pid, Tick now) {
  if (!reissue_cut_ops_) return;
  const ProcessId script_idx = script_of_proc_.at(static_cast<std::size_t>(pid));
  if (script_idx < 0) return;
  const auto s = static_cast<std::size_t>(script_idx);
  // Nothing in flight, or the next invocation is still scheduled for the
  // future (it will dispatch normally now that the process is back up).
  if (inflight_token_[s] < 0 || inflight_sched_[s] > now) return;
  // The current operation was cut: either invoked before the crash and
  // never answered, or dispatched into the downtime and lost.  Retry it as
  // a new invocation; the old token stays unresolved in the trace.
  const Operation& op = scripts_[s].ops[next_op_[s] - 1];
  inflight_token_[s] = sim_.invoke_at(now, pid, op);
  inflight_sched_[s] = now;
  ++reissued_;
}

}  // namespace linbound
