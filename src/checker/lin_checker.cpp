#include "checker/lin_checker.h"

#include <stdexcept>
#include <sstream>
#include <utility>

namespace linbound {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_u64(std::uint64_t& h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= x & 0xff;
    h *= kFnvPrime;
    x >>= 8;
  }
}

int active_processes(const History& history) {
  int active = 0;
  for (int p = 0; p < history.process_count(); ++p) {
    if (!history.by_process(p).empty()) ++active;
  }
  return active;
}

constexpr const char* kNoCandidateText =
    "no operation is eligible to linearize next (real-time order cycle)";

CheckResult check(const ObjectModel& model, const History& history,
                  bool real_time_order,
                  const std::vector<PendingInvocation>& pending,
                  const CheckLimits& limits) {
  detail::WglSearch search(model, history, real_time_order, pending, limits,
                           detail::SearchScope{0, 1, history.size()});
  CheckResult result;
  result.ok = search.run(Snapshot::initial(model), result);
  result.max_resident_states = search.dead_states();
  return result;
}

const std::vector<PendingInvocation> kNoPending;

}  // namespace

CheckResult check_linearizable(const ObjectModel& model, const History& history,
                               const CheckLimits& limits) {
  return check(model, history, /*real_time_order=*/true, kNoPending, limits);
}

CheckResult check_sequentially_consistent(const ObjectModel& model,
                                          const History& history,
                                          const CheckLimits& limits) {
  return check(model, history, /*real_time_order=*/false, kNoPending, limits);
}

CheckResult check_linearizable_with_pending(
    const ObjectModel& model, const History& history,
    const std::vector<PendingInvocation>& pending, const CheckLimits& limits) {
  return check(model, history, /*real_time_order=*/true, pending, limits);
}

CheckResult check_linearizable(const ObjectModel& model, const History& history,
                               const CheckOptions& options) {
  return check_linearizable(model, history, options.limits);
}

CheckResult check_linearizable_with_pending(
    const ObjectModel& model, const History& history,
    const std::vector<PendingInvocation>& pending, const CheckOptions& options) {
  return check_linearizable_with_pending(model, history, pending,
                                         options.limits);
}

namespace detail {

void throw_state_budget_exceeded(std::size_t max_states,
                                 std::size_t states_explored,
                                 std::size_t segment_index,
                                 std::size_t segment_count,
                                 std::size_t history_ops) {
  std::ostringstream os;
  os << "consistency check exceeded the state budget (max_states="
     << max_states << "): explored " << states_explored
     << " states in segment " << segment_index << " of " << segment_count
     << " over a history of " << history_ops
     << " operations; the history has too much concurrency for exact "
        "checking";
  throw std::runtime_error(os.str());
}

WglSearch::WglSearch(const ObjectModel& model, const History& history,
                     bool real_time_order,
                     const std::vector<PendingInvocation>& pending,
                     const CheckLimits& limits, const SearchScope& scope)
    : model_(model),
      history_(history),
      real_time_order_(real_time_order),
      pending_(pending),
      limits_(limits),
      scope_(scope) {}

bool WglSearch::run(const Snapshot& start, CheckResult& result) {
  frontier_.assign(static_cast<std::size_t>(history_.process_count()), 0);
  pending_taken_.assign(pending_.size(), false);
  chosen_.clear();
  chosen_.reserve(history_.size());
  if (history_.size() == 0 && pending_.empty()) {
    // Nothing to order: the empty witness linearizes the empty history.
    result.early_exit = true;
    result.witness.clear();
    return true;
  }
  if (pending_.empty() && active_processes(history_) <= 1) {
    // One process means program order is the only permutation consistent
    // with both real-time order and per-process order; replay it.  The
    // replayed legal prefix is reported even on failure.
    const bool ok = replay(start, result);
    result.witness = std::move(chosen_);
    return ok;
  }
  if (!search(start, result)) return false;
  result.witness = std::move(chosen_);
  return true;
}

bool WglSearch::replay(const Snapshot& start, CheckResult& result) {
  result.early_exit = true;
  Snapshot state = start;
  for (int p = 0; p < history_.process_count(); ++p) {
    for (std::size_t idx : history_.by_process(p)) {
      const HistoryOp& op = history_.ops()[idx];
      count_state(result);
      Snapshot next = state;
      const Value determined = next.apply(op.op);
      if (!(determined == op.ret)) {
        if (result.explanation.empty()) {
          result.explanation = mismatch_text(op, state, determined);
        }
        return false;
      }
      state = std::move(next);
      chosen_.push_back(idx);
    }
  }
  return true;
}

/// Depth-first search for the first linearization, over an explicit stack
/// of open nodes.  At each node: the memo check, then pending invocations
/// in order (their returns are unconstrained, so applying always
/// succeeds), then process fronts in pid order; a node whose moves are
/// exhausted is dead and enters the memo.
bool WglSearch::search(const Snapshot& start, CheckResult& result) {
  // A successful path holds one open node per operation and pending move.
  stack_.clear();
  stack_.reserve(history_.size() + pending_.size() + 1);
  const Entered root = enter(start, result);
  if (root != Entered::kOpen) return root == Entered::kSolved;
  const std::size_t moves = pending_.size() + frontier_.size();
  while (!stack_.empty()) {
    Frame& top = stack_.back();
    if (top.next_move == moves) {
      if (!top.any_candidate && result.explanation.empty()) {
        result.explanation = kNoCandidateText;
      }
      dead_[top.hash].push_back(
          DeadEntry{frontier_, pending_taken_, std::move(top.state)});
      ++dead_count_;
      stack_.pop_back();
      if (!stack_.empty()) undo(stack_.back().next_move - 1);
      continue;
    }
    const std::size_t move = top.next_move++;
    Snapshot next;
    if (move < pending_.size()) {
      if (pending_taken_[move] || !pending_eligible(pending_[move])) continue;
      next = top.state;
      next.apply(pending_[move].op);
      pending_taken_[move] = true;
    } else {
      const std::size_t p = move - pending_.size();
      const std::optional<std::size_t> f = front(p);
      if (!f) continue;
      const HistoryOp& op = history_.ops()[*f];
      if (!eligible_at(op.invoke, f)) continue;
      top.any_candidate = true;
      // Pure accessors cannot change the state, so the branch can share it
      // outright instead of triggering the copy-on-write clone.
      next = top.state;
      const bool accessor = model_.classify(op.op) == OpClass::kPureAccessor;
      const Value determined =
          accessor ? next.apply_accessor(op.op) : next.apply(op.op);
      if (!(determined == op.ret)) {
        if (result.explanation.empty()) {
          result.explanation = mismatch_text(op, top.state, determined);
        }
        continue;
      }
      ++frontier_[p];
      chosen_.push_back(*f);
    }
    // enter() may grow the stack: `top` is not used past this point.
    switch (enter(std::move(next), result)) {
      case Entered::kSolved:
        return true;
      case Entered::kDead:
        undo(move);
        break;
      case Entered::kOpen:
        break;
    }
  }
  return false;
}

WglSearch::Entered WglSearch::enter(Snapshot state, CheckResult& result) {
  if (chosen_.size() == history_.size()) return Entered::kSolved;
  const std::uint64_t h = memo_hash(state);
  if (known_dead(h, state)) {
    ++result.memo_hits;
    return Entered::kDead;
  }
  count_state(result);
  stack_.push_back(Frame{std::move(state), h, 0, false});
  return Entered::kOpen;
}

void WglSearch::undo(std::size_t move) {
  if (move < pending_.size()) {
    pending_taken_[move] = false;
    return;
  }
  chosen_.pop_back();
  --frontier_[move - pending_.size()];
}

void WglSearch::count_state(CheckResult& result) const {
  if (++result.states_explored > limits_.max_states) {
    throw_state_budget_exceeded(limits_.max_states, result.states_explored,
                                scope_.segment_index, scope_.segment_count,
                                scope_.history_ops);
  }
}

/// Frontier op index of process p, or nullopt if exhausted.
std::optional<std::size_t> WglSearch::front(std::size_t p) const {
  const auto& idxs = history_.by_process(static_cast<ProcessId>(p));
  const std::size_t k = frontier_[p];
  if (k >= idxs.size()) return std::nullopt;
  return idxs[k];
}

/// Can an operation invoked at `inv` be linearized next?  Under real-time
/// order, no *other* remaining completed operation may have responded
/// strictly before `inv`.  It suffices to test frontier operations: within
/// a process the frontier op has the earliest response among that
/// process's remaining ops.  (Pending operations never block anyone: they
/// have no response.)
bool WglSearch::eligible_at(Tick inv, std::optional<std::size_t> self) const {
  if (!real_time_order_) return true;
  for (std::size_t p = 0; p < frontier_.size(); ++p) {
    const std::optional<std::size_t> f = front(p);
    if (!f || (self && *f == *self)) continue;
    if (history_.ops()[*f].response < inv) return false;
  }
  return true;
}

/// A pending invocation also waits for its own process's earlier
/// operations.  Real time alone misses one that responded at the very tick
/// the pending invocation was issued (equal times count as concurrent).
bool WglSearch::pending_eligible(const PendingInvocation& q) const {
  const auto p = static_cast<std::size_t>(q.proc);
  if (p < frontier_.size()) {
    const std::optional<std::size_t> own = front(p);
    if (own && history_.ops()[*own].invoke < q.invoke) return false;
  }
  return eligible_at(q.invoke, std::nullopt);
}

std::uint64_t WglSearch::memo_hash(const Snapshot& state) const {
  std::uint64_t h = kFnvOffset;
  for (std::size_t f : frontier_) fnv_u64(h, f);
  std::uint64_t bits = 0;
  for (std::size_t q = 0; q < pending_taken_.size(); ++q) {
    bits = (bits << 1) | (pending_taken_[q] ? 1u : 0u);
    if ((q & 63u) == 63u) {
      fnv_u64(h, bits);
      bits = 0;
    }
  }
  if (!pending_taken_.empty()) fnv_u64(h, bits);
  fnv_u64(h, state.fingerprint());
  return h;
}

/// Exact identity of a dead search node; the Snapshot retains the state by
/// refcount so equality is re-confirmed on every bucket hit.
bool WglSearch::known_dead(std::uint64_t h, const Snapshot& state) const {
  auto it = dead_.find(h);
  if (it == dead_.end()) return false;
  for (const DeadEntry& e : it->second) {
    if (e.frontier == frontier_ && e.pending_taken == pending_taken_ &&
        e.state.equals(state)) {
      return true;
    }
  }
  return false;
}

std::string WglSearch::mismatch_text(const HistoryOp& op,
                                     const Snapshot& before,
                                     const Value& determined) const {
  std::ostringstream os;
  os << "p" << op.proc << " " << model_.describe(op.op) << " returned "
     << op.ret.to_string() << " but state " << before.to_string()
     << " determines " << determined.to_string();
  return os.str();
}

}  // namespace detail

}  // namespace linbound
