#include "checker/lin_checker.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace linbound {
namespace {

/// Hash step for memo keys: a multiply-xorshift round per word
/// (NodeIndex finishes the mix).
std::uint64_t hash_step(std::uint64_t h, std::uint64_t x) {
  h = (h ^ x) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 29);
}

constexpr const char* kNoCandidateText =
    "no operation is eligible to linearize next (real-time order cycle)";

CheckResult check(const ObjectModel& model, const History& history,
                  bool real_time_order,
                  const std::vector<PendingInvocation>& pending,
                  const CheckLimits& limits) {
  detail::WglSearch search(model, limits);
  search.load(history, pending, real_time_order,
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

CheckResult check_linearizable_with_pending(
    const ObjectModel& model, const History& history,
    const std::vector<PendingInvocation>& pending, const CheckOptions& options) {
  return check_linearizable_with_pending(model, history, pending,
                                         options.limits);
}

namespace detail {

void NodeIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<std::size_t>(64, 2 * old.size()), Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.gen != gen_) continue;
    std::size_t i = s.hash & mask;
    while (slots_[i].gen == gen_) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

WglSearch::WglSearch(const ObjectModel& model, const CheckLimits& limits)
    : model_(model), limits_(limits) {}

void WglSearch::load(const History& history,
                     const std::vector<PendingInvocation>& pending,
                     bool real_time_order, const SearchScope& scope) {
  ops_ = &history.ops();
  real_time_order_ = real_time_order;
  procs_ = static_cast<std::size_t>(history.process_count());
  proc_begin_.assign(procs_ + 1, 0);
  proc_ops_.clear();
  for (std::size_t p = 0; p < procs_; ++p) {
    const auto& idxs = history.by_process(static_cast<ProcessId>(p));
    proc_ops_.insert(proc_ops_.end(), idxs.begin(), idxs.end());
    proc_begin_[p + 1] = proc_ops_.size();
  }
  reset(pending, scope);
}

void WglSearch::load(const std::vector<HistoryOp>& ops,
                     const std::vector<PendingInvocation>& pending,
                     const SearchScope& scope) {
  ops_ = &ops;
  real_time_order_ = true;
  ProcessId first_pid = -1;
  ProcessId max_pid = -1;
  bool one_process = true;
  for (const HistoryOp& op : ops) {
    if (op.response == kNoTime) continue;
    if (first_pid < 0) first_pid = op.proc;
    one_process = one_process && op.proc == first_pid;
    max_pid = std::max(max_pid, op.proc);
  }
  procs_ = static_cast<std::size_t>(max_pid + 1);
  if (one_process && pending.empty()) {
    // replay() decides this search from a single start, and needs only the
    // operations in program order -- arrival order, for one process.  The
    // per-process index, the key and the memo wait for a search from
    // several starts (begin() calls index_ops()).
    pending_ = &pending;
    scope_ = scope;
    replayable_ = true;
    indexed_ = false;
    proc_ops_.clear();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].response != kNoTime) proc_ops_.push_back(i);
    }
    chosen_.reserve(proc_ops_.size());
    if (memo_nodes_ != 0) clear_memo();  // dead_states() reads 0 after replay
    return;
  }
  index_ops();
  reset(pending, scope);
}

/// Operations arrive in invocation order and a process's operations never
/// overlap, so arrival order within a process IS its program order: a
/// counting sort by process builds the index, no sort needed.
void WglSearch::index_ops() {
  const std::vector<HistoryOp>& ops = *ops_;
  // Count process p's operations into [p + 2] and prefix-sum, so [p + 1]
  // is p's begin; filling with [p + 1] as p's cursor leaves it at p's end,
  // which is p + 1's begin.
  proc_begin_.assign(procs_ + 2, 0);
  for (const HistoryOp& op : ops) {
    if (op.response != kNoTime) {
      ++proc_begin_[static_cast<std::size_t>(op.proc) + 2];
    }
  }
  for (std::size_t p = 2; p < proc_begin_.size(); ++p) {
    proc_begin_[p] += proc_begin_[p - 1];
  }
  proc_ops_.resize(proc_begin_.back());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].response == kNoTime) continue;
    proc_ops_[proc_begin_[static_cast<std::size_t>(ops[i].proc) + 1]++] = i;
  }
}

void WglSearch::reset(const std::vector<PendingInvocation>& pending,
                      const SearchScope& scope) {
  pending_ = &pending;
  scope_ = scope;
  indexed_ = true;
  // One process (or none) and nothing pending: program order is the only
  // permutation consistent with both real-time and per-process order, and
  // the empty witness linearizes the empty history.
  std::size_t active = 0;
  for (std::size_t p = 0; p < procs_; ++p) {
    if (proc_begin_[p + 1] > proc_begin_[p]) ++active;
  }
  replayable_ = pending.empty() && active <= 1;
  key_.assign(procs_ + pending.size(), 0);
  // A successful path holds one open node per operation and pending move.
  chosen_.reserve(proc_ops_.size());
  stack_.reserve(proc_ops_.size() + pending.size() + 1);
  clear_memo();
}

void WglSearch::clear_memo() {
  for (std::size_t i = 0; i < memo_nodes_; ++i) memo_states_[i] = Snapshot();
  memo_nodes_ = 0;
  memo_.clear();
  stack_.clear();
}

bool WglSearch::run(const Snapshot& start, CheckResult& result) {
  // After a success the memo holds that path's open nodes, which are not
  // dead: start over.
  if (!stack_.empty()) clear_memo();
  // A failed replay reports its legal prefix; a failed search has undone
  // its whole path.
  const bool ok = replayable_ ? replay(start, result)
                             : begin(start, result) || next_final(result);
  result.witness = std::move(chosen_);
  return ok;
}

/// Replay program order from `start`, making the search's exact counter
/// updates along that one path (a state per operation) without its memo
/// or stack.  On success final_ holds the end state.
bool WglSearch::replay(const Snapshot& start, CheckResult& acc) {
  acc.early_exit = true;
  chosen_.clear();
  Snapshot state = start;
  for (std::size_t i : proc_ops_) {
    const HistoryOp& op = (*ops_)[i];
    count_state(acc);
    const Value determined = apply(state, op.op);
    if (!(determined == op.ret)) {
      if (acc.explanation.empty()) {
        // Rare: rebuild the state the operation met, for the explanation.
        Snapshot before = start;
        for (std::size_t j : chosen_) apply(before, (*ops_)[j].op);
        note_mismatch(op, before, determined, acc);
      }
      return false;
    }
    chosen_.push_back(i);
  }
  final_ = std::move(state);
  return true;
}

/// Open the root node at `start`; true when it is already complete
/// (nothing to linearize), with final_ = start.
bool WglSearch::begin(const Snapshot& start, CheckResult& acc) {
  if (!indexed_) {
    index_ops();
    reset(*pending_, scope_);
  }
  std::fill(key_.begin(), key_.end(), 0);
  chosen_.clear();
  stack_.clear();
  final_ = start;
  at_final_ = proc_ops_.empty();
  if (!at_final_) enter(final_, acc);
  return at_final_;
}

/// Depth-first search to the next complete linearization, over the
/// explicit stack of open nodes: true with path() and final_ set, false
/// once every node is exhausted.  At each node: pending invocations in
/// order (their returns are unconstrained, so applying always succeeds),
/// then process fronts in pid order.
bool WglSearch::next_final(CheckResult& acc) {
  if (at_final_ && !stack_.empty()) undo(stack_.back().next_move - 1);
  at_final_ = false;
  const std::size_t moves = pending_->size() + procs_;
  while (!stack_.empty()) {
    Frame& top = stack_.back();
    if (top.next_move == moves) {
      if (!top.any_candidate && acc.explanation.empty()) {
        acc.explanation = kNoCandidateText;
      }
      stack_.pop_back();
      if (!stack_.empty()) undo(stack_.back().next_move - 1);
      continue;
    }
    const std::size_t move = top.next_move++;
    Snapshot next;
    if (move < pending_->size()) {
      const PendingInvocation& q = (*pending_)[move];
      if (key_[procs_ + move] != 0 || !pending_eligible(q)) continue;
      next = top.state;
      apply(next, q.op);
      key_[procs_ + move] = 1;
    } else {
      const std::size_t p = move - pending_->size();
      const std::size_t f = front(p);
      if (f == kNone || !eligible_at((*ops_)[f].invoke, f)) continue;
      top.any_candidate = true;
      const HistoryOp& op = (*ops_)[f];
      next = top.state;
      const Value determined = apply(next, op.op);
      if (!(determined == op.ret)) {
        note_mismatch(op, top.state, determined, acc);
        continue;
      }
      ++key_[p];
      chosen_.push_back(f);
    }
    if (chosen_.size() == proc_ops_.size()) {
      final_ = std::move(next);
      at_final_ = true;
      return true;
    }
    // enter() may grow the stack: `top` is not used past this point.
    if (!enter(next, acc)) undo(move);
  }
  return false;
}

/// Open the incomplete node (key_, state) unless the memo has seen it;
/// true when opened.  Marked in the memo pre-order: every move strictly
/// grows the frontier or the pending-taken set, so no node recurs on its
/// own path, and a node met again was fully explored before -- for first
/// success, proven dead.
bool WglSearch::enter(Snapshot& state, CheckResult& acc) {
  std::uint64_t h = 0;
  for (std::size_t k : key_) h = hash_step(h, k);
  h = hash_step(h, state.fingerprint());
  const std::size_t width = key_.size();
  const bool fresh = memo_.insert_unique(h, memo_nodes_, [&](std::size_t node) {
    return std::equal(key_.begin(), key_.end(),
                      memo_keys_.begin() +
                          static_cast<std::ptrdiff_t>(node * width)) &&
           memo_states_[node].equals(state);
  });
  if (!fresh) {
    ++acc.memo_hits;
    return false;
  }
  const std::size_t node = memo_nodes_++;
  if (memo_states_.size() < memo_nodes_) memo_states_.resize(memo_nodes_);
  memo_states_[node] = state;
  memo_keys_.resize(memo_nodes_ * width);
  std::copy(key_.begin(), key_.end(),
            memo_keys_.begin() + static_cast<std::ptrdiff_t>(node * width));
  count_state(acc);
  stack_.push_back(Frame{std::move(state)});
  return true;
}

void WglSearch::undo(std::size_t move) {
  if (move < pending_->size()) {
    key_[procs_ + move] = 0;
    return;
  }
  chosen_.pop_back();
  --key_[move - pending_->size()];
}

/// Pure accessors cannot change the state, so they skip the copy-on-write
/// clone even when `state` is shared.
Value WglSearch::apply(Snapshot& state, const Operation& op) const {
  return model_.classify(op) == OpClass::kPureAccessor
             ? state.apply_accessor(op)
             : state.apply(op);
}

/// The single throw site enforcing CheckLimits::max_states: reports states
/// explored, the segment under search, and the history size.
void WglSearch::count_state(CheckResult& acc) const {
  if (++acc.states_explored <= limits_.max_states) return;
  std::ostringstream os;
  os << "consistency check exceeded the state budget (max_states="
     << limits_.max_states << "): explored " << acc.states_explored
     << " states in segment " << scope_.segment_index << " of "
     << scope_.segment_count << " over a history of " << scope_.history_ops
     << " operations; the history has too much concurrency for exact "
        "checking";
  throw std::runtime_error(os.str());
}

/// Frontier operation of process p, or kNone if exhausted.
std::size_t WglSearch::front(std::size_t p) const {
  const std::size_t at = proc_begin_[p] + key_[p];
  return at < proc_begin_[p + 1] ? proc_ops_[at] : kNone;
}

/// Can an operation invoked at `inv` be linearized next?  Under real-time
/// order, no *other* remaining completed operation may have responded
/// strictly before `inv`.  It suffices to test frontier operations: within
/// a process the frontier op has the earliest response among that
/// process's remaining ops.  (Pending operations never block anyone: they
/// have no response.)
bool WglSearch::eligible_at(Tick inv, std::size_t self) const {
  if (!real_time_order_) return true;
  for (std::size_t p = 0; p < procs_; ++p) {
    const std::size_t f = front(p);
    if (f == kNone || f == self) continue;
    if ((*ops_)[f].response < inv) return false;
  }
  return true;
}

/// A pending invocation also waits for its own process's earlier
/// operations.  Real time alone misses one that responded at the very tick
/// the pending invocation was issued (equal times count as concurrent).
bool WglSearch::pending_eligible(const PendingInvocation& q) const {
  const auto p = static_cast<std::size_t>(q.proc);
  if (p < procs_) {
    const std::size_t own = front(p);
    if (own != kNone && (*ops_)[own].invoke < q.invoke) return false;
  }
  return eligible_at(q.invoke, kNone);
}

/// The first return mismatch met is the explanation; later ones build no
/// text.
void WglSearch::note_mismatch(const HistoryOp& op, const Snapshot& before,
                              const Value& determined,
                              CheckResult& acc) const {
  if (!acc.explanation.empty()) return;
  std::ostringstream os;
  os << "p" << op.proc << " " << model_.describe(op.op) << " returned "
     << op.ret.to_string() << " but state " << before.to_string()
     << " determines " << determined.to_string();
  acc.explanation = os.str();
}

}  // namespace detail

}  // namespace linbound
