// Streaming online linearizability checker (see streaming_checker.h for the
// architecture and DESIGN.md for the soundness argument).
//
// Layout: StreamingChecker::Impl is the engine -- cut detection, eager segment
// retirement via forward state-set threading, and the final-window search
// through the shared WGL core (detail::WglSearch, lin_checker.h).  All of
// its scratch lives for the whole run: retiring a segment allocates nothing
// but the copy-on-write clones of the object states it mutates.
// streaming_check_trace is the replay driver used by tests and benches.
#include "checker/streaming_checker.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "spec/snapshot.h"

namespace linbound {
namespace {

/// Hash step for memo keys: a multiply-xorshift round per word, then the
/// splitmix64 finalizer so the low bits index a power-of-two table.
std::uint64_t hash_step(std::uint64_t h, std::uint64_t x) {
  h = (h ^ x) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 29);
}

std::uint64_t hash_finish(std::uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// One operation as the stream sees it.  `response == kNoTime` while the
/// operation is in flight; an operation that never responds (crash mid-op,
/// give-up) simply stays that way and finalize() treats it as pending --
/// the same classification history_with_pending makes offline.
struct StreamOp {
  std::int64_t token = 0;
  ProcessId proc = kNoProcess;
  Operation op;
  Value ret;
  Tick invoke = kNoTime;
  Tick response = kNoTime;

  bool completed() const { return response != kNoTime; }
};

/// Open-addressed index from 64-bit hashes to node numbers, cleared in O(1)
/// by bumping a generation counter (a slot is live only when stamped with
/// the current generation).  Distinct nodes may share a hash: contains()
/// hands every node filed under an equal hash to the caller's exact
/// comparison, so the hash is a shortcut, never the verdict.
class NodeIndex {
 public:
  void clear() {
    size_ = 0;
    if (++gen_ == 0) {  // wrapped: stale stamps could alias the new one
      std::fill(slots_.begin(), slots_.end(), Slot{});
      gen_ = 1;
    }
  }

  template <typename Same>
  bool contains(std::uint64_t h, Same&& same) const {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.gen != gen_) return false;
      if (s.hash == h && same(s.node)) return true;
    }
  }

  void insert(std::uint64_t h, std::size_t node) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(h, static_cast<std::uint32_t>(node));
    ++size_;
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t gen = 0;
    std::uint32_t node = 0;
  };

  void place(std::uint64_t h, std::uint32_t node) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i].gen == gen_) i = (i + 1) & mask;
    slots_[i] = Slot{h, gen_, node};
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(64, 2 * old.size()), Slot{});
    for (const Slot& s : old) {
      if (s.gen == gen_) place(s.hash, s.node);
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  std::uint32_t gen_ = 1;
  std::size_t size_ = 0;
};

/// Witness bookkeeping for the forward state set: each retained final state
/// names a link -- the segment-local linearization (a run of operation
/// tokens in `tokens`) chosen on the path that first reached it, plus the
/// link it extended, so entries with a common prefix share it.  Both
/// vectors only grow; they are the output being accumulated, not search
/// state, and the resident-state metric excludes them.
struct WitnessLog {
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);
  struct Link {
    std::size_t parent;
    std::size_t begin;
    std::size_t len;
  };

  std::vector<std::int64_t> tokens;
  std::vector<Link> links;

  /// Seal tokens[begin, end) as a new link extending `parent`.
  std::size_t link(std::size_t parent, std::size_t begin) {
    links.push_back(Link{parent, begin, tokens.size() - begin});
    return links.size() - 1;
  }

  /// Every token on the chain ending at `last`, oldest segment first.
  std::vector<std::int64_t> stitch(std::size_t last) const {
    std::vector<std::size_t> chain;
    for (std::size_t l = last; l != kRoot; l = links[l].parent) {
      chain.push_back(l);
    }
    std::vector<std::int64_t> out;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const auto first = tokens.begin() +
                         static_cast<std::ptrdiff_t>(links[*it].begin);
      out.insert(out.end(), first,
                 first + static_cast<std::ptrdiff_t>(links[*it].len));
    }
    return out;
  }
};

/// One entry of the forward state set: a distinct object state reachable by
/// linearizing every retired segment, in first-reached order.
struct StateEntry {
  Snapshot state;
  std::size_t link = WitnessLog::kRoot;
};

}  // namespace

/// The single-threaded checking engine.  Feed invoke()/response() in
/// simulated-time order; finalize() exactly once at the end.
struct StreamingChecker::Impl {
 public:
  Impl(const ObjectModel& model, const CheckLimits& limits)
      : model_(model), limits_(limits) {
    alist_.push_back(StateEntry{Snapshot::initial(model_)});
  }

  void invoke(const OperationRecord& rec) {
    maybe_cut(rec.invoke_time);
    open_ix_.insert_or_assign(rec.token, window_.size());
    window_.push_back(
        StreamOp{rec.token, rec.proc, rec.op, Value(), rec.invoke_time});
    ++in_flight_;
    ++ops_seen_;
    if (window_.size() > max_window_ops_) max_window_ops_ = window_.size();
    bump_resident(0);
  }

  void response(const OperationRecord& rec) {
    const std::optional<std::size_t> ix = open_ix_.extract(rec.token);
    if (!ix) {
      throw std::logic_error(
          "StreamingChecker: response without a matching in-flight "
          "invocation (token " +
          std::to_string(rec.token) + ")");
    }
    StreamOp& op = window_[*ix];
    op.ret = rec.ret;
    op.response = rec.response_time;
    --in_flight_;
    ++completed_seen_;
    // kNoTime is INT64_MIN, so the first response always raises it.
    max_response_ = std::max(max_response_, rec.response_time);
  }

  CheckResult finalize();

  std::size_t ops_seen() const { return ops_seen_; }
  std::size_t segments_retired() const { return segments_retired_; }
  std::size_t max_window_ops() const { return max_window_ops_; }
  std::size_t max_resident_states() const { return peak_resident_; }

 private:
  // --- online cut detection -------------------------------------------------

  /// Called on every invocation, before it joins the window.  Nothing in
  /// flight + every response so far strictly before `t` is exactly
  /// segment_history's cut condition restricted to what is knowable online;
  /// the pending-invocation clause is resolved by deferring confirmation
  /// (retire only while a *later* tentative cut exists -- its trigger had
  /// nothing in flight, so no pending invocation can predate it).
  ///
  /// Three buffers rotate through the roles window -> tentative ->
  /// retiring, so no cut reallocates a segment.
  void maybe_cut(Tick t) {
    if (in_flight_ != 0 || window_.empty()) return;
    if (max_response_ >= t) return;
    std::swap(retiring_, tentative_);
    std::swap(tentative_, window_);
    open_ix_.clear();  // empty already: nothing was in flight
    max_response_ = kNoTime;
    if (!retiring_.empty()) retire();
  }

  /// Confirm and enumerate the segment in `retiring_`, then recycle it.
  void retire() {
    ++confirmed_cuts_;
    if (!failed_) advance(retiring_);
    retiring_.clear();
  }

  // --- forward state-set threading over a confirmed segment -----------------

  /// Replace the state set with every distinct final state of `seg`,
  /// enumerating from each current entry in first-reached order.  An empty
  /// successor set is the (final) verdict: no linearization of the prefix
  /// extends through this segment.
  void advance(const std::vector<StreamOp>& seg) {
    if (alist_.size() == 1 && replay_one_process(seg)) return;
    index_segment(seg);
    for (const StateEntry& entry : alist_) enumerate(seg, entry);
    for (std::size_t i = 0; i < memo_nodes_; ++i) memo_state_[i] = Snapshot();
    memo_nodes_ = 0;
    memo_.clear();
    finals_.clear();
    ++segments_retired_;
    if (next_.empty()) {
      failed_ = true;
      alist_.clear();
      return;
    }
    alist_.swap(next_);
    next_.clear();
    bump_resident(0);
  }

  /// Fast path: a segment whose operations all come from one process,
  /// threaded from a single state, has exactly one linearization -- program
  /// order.  Replays it, and on success makes the enumeration's exact
  /// bookkeeping along that one path: k search nodes, then one final state.
  /// A mismatch leaves every counter untouched and returns false, so the
  /// enumeration runs and explains it.
  bool replay_one_process(const std::vector<StreamOp>& seg) {
    const ProcessId proc = seg.front().proc;
    for (const StreamOp& op : seg) {
      if (op.proc != proc) return false;
    }
    Snapshot state = alist_.front().state;
    for (const StreamOp& op : seg) {
      if (!(apply(state, op) == op.ret)) return false;
    }
    const std::size_t k = seg.size();
    for (std::size_t i = 1; i <= k; ++i) {
      bump_resident(k + i);
      count_state();
    }
    const std::size_t begin = log_.tokens.size();
    for (const StreamOp& op : seg) log_.tokens.push_back(op.token);
    StateEntry& entry = alist_.front();
    entry.link = log_.link(entry.link, begin);
    entry.state = std::move(state);
    bump_resident(2 * k + 1);
    ++segments_retired_;
    bump_resident(0);
    return true;
  }

  /// Per-process index lists over one segment, flattened: process p's
  /// operations are proc_ops_[proc_begin_[p], proc_begin_[p + 1]).
  /// Operations arrive in invocation-time order and a process's operations
  /// never overlap, so arrival order within a process IS its by_process
  /// (invoke-sorted) order -- no sort needed.
  void index_segment(const std::vector<StreamOp>& seg) {
    ProcessId max_pid = -1;
    for (const StreamOp& op : seg) max_pid = std::max(max_pid, op.proc);
    procs_ = static_cast<std::size_t>(max_pid + 1);
    proc_begin_.assign(procs_ + 1, 0);
    for (const StreamOp& op : seg) {
      ++proc_begin_[static_cast<std::size_t>(op.proc) + 1];
    }
    for (std::size_t p = 0; p < procs_; ++p) {
      proc_begin_[p + 1] += proc_begin_[p];
    }
    proc_ops_.resize(seg.size());
    frontier_.assign(procs_, 0);  // fill cursor, then the search frontier
    for (std::size_t i = 0; i < seg.size(); ++i) {
      const auto p = static_cast<std::size_t>(seg[i].proc);
      proc_ops_[proc_begin_[p] + frontier_[p]++] = i;
    }
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Frontier op index of process p, or kNone if exhausted.
  std::size_t front(std::size_t p) const {
    const std::size_t at = proc_begin_[p] + frontier_[p];
    return at < proc_begin_[p + 1] ? proc_ops_[at] : kNone;
  }

  /// Same-segment real-time eligibility, the offline search's rule: no
  /// other remaining frontier operation may have responded strictly before
  /// `inv`.  Confirmed segments hold no pending operations (every pending
  /// invocation lives in the final window -- nothing was in flight at any
  /// trigger), so the frontier scan is the whole test.
  bool eligible_at(const std::vector<StreamOp>& seg, Tick inv,
                   std::size_t self) const {
    for (std::size_t p = 0; p < procs_; ++p) {
      const std::size_t f = front(p);
      if (f == kNone || f == self) continue;
      if (seg[f].response < inv) return false;
    }
    return true;
  }

  /// One open node of the depth-first enumeration: its state and the next
  /// process whose front operation to try.
  struct Frame {
    Snapshot state;
    std::size_t next_p = 0;
    bool any_candidate = false;
  };

  /// Enumerate every linearization of `seg` from `entry`, over an explicit
  /// stack of open nodes (segment length never touches the thread stack).
  /// Candidate order mirrors the offline search: process fronts in pid
  /// order (there are no pending operations in a confirmed segment).
  void enumerate(const std::vector<StreamOp>& seg, const StateEntry& entry) {
    std::fill(frontier_.begin(), frontier_.end(), 0);
    path_.clear();
    base_link_ = entry.link;
    if (!enter(seg, entry.state)) return;
    while (!stack_.empty()) {
      Frame& top = stack_.back();
      if (top.next_p == procs_) {
        if (!top.any_candidate && explanation_.empty()) {
          explanation_ = kNoCandidateText;
        }
        stack_.pop_back();
        if (!stack_.empty()) retreat(stack_.back().next_p - 1);
        continue;
      }
      const std::size_t p = top.next_p++;
      const std::size_t f = front(p);
      if (f == kNone || !eligible_at(seg, seg[f].invoke, f)) continue;
      top.any_candidate = true;
      const StreamOp& op = seg[f];
      Snapshot next = top.state;
      const Value determined = apply(next, op);
      if (!(determined == op.ret)) {
        if (explanation_.empty()) {
          explanation_ = mismatch_text(op, top.state, determined);
        }
        continue;
      }
      ++frontier_[p];
      path_.push_back(op.token);
      // enter() may grow the stack: `top` is not used past this point.
      if (!enter(seg, std::move(next))) retreat(p);
    }
  }

  void retreat(std::size_t p) {
    --frontier_[p];
    path_.pop_back();
  }

  /// Visit the node (frontier_, state).  A complete linearization emits its
  /// final state; otherwise the cross-entry visited memo expands each node
  /// at most once per segment no matter how many entries re-reach it (the
  /// role the offline dead memo plays), marked pre-order -- safe because
  /// the frontier strictly advances along any path (no cycles) and a marked
  /// node's subtree has always been fully enumerated.  True when the node
  /// was opened (pushed on the stack).
  bool enter(const std::vector<StreamOp>& seg, Snapshot state) {
    if (path_.size() == seg.size()) {
      emit_final(seg.size(), state);
      return false;
    }
    std::uint64_t h = 0;
    for (std::size_t f : frontier_) h = hash_step(h, f);
    h = hash_finish(hash_step(h, state.fingerprint()));
    const bool seen = memo_.contains(h, [&](std::size_t node) {
      return std::equal(frontier_.begin(), frontier_.end(),
                        memo_frontier_.begin() +
                            static_cast<std::ptrdiff_t>(node * procs_)) &&
             memo_state_[node].equals(state);
    });
    if (seen) {
      ++memo_hits_;
      return false;
    }
    const std::size_t node = memo_nodes_++;
    memo_.insert(h, node);
    if (memo_state_.size() < memo_nodes_) memo_state_.resize(memo_nodes_);
    memo_state_[node] = state;
    memo_frontier_.resize(memo_nodes_ * procs_);
    std::copy(frontier_.begin(), frontier_.end(),
              memo_frontier_.begin() +
                  static_cast<std::ptrdiff_t>(node * procs_));
    bump_resident(seg.size() + memo_nodes_ + next_.size());
    count_state();
    stack_.push_back(Frame{std::move(state)});
    return true;
  }

  void emit_final(std::size_t seg_size, const Snapshot& state) {
    const std::uint64_t fp = hash_finish(state.fingerprint());
    const bool duplicate = finals_.contains(fp, [&](std::size_t j) {
      return next_[j].state.equals(state);
    });
    if (duplicate) return;
    finals_.insert(fp, next_.size());
    const std::size_t begin = log_.tokens.size();
    log_.tokens.insert(log_.tokens.end(), path_.begin(), path_.end());
    next_.push_back(StateEntry{state, log_.link(base_link_, begin)});
    bump_resident(seg_size + memo_nodes_ + next_.size());
  }

  // --- shared plumbing ------------------------------------------------------

  /// Pure accessors cannot change the state, so they skip the
  /// copy-on-write clone even when `state` is shared.
  Value apply(Snapshot& state, const StreamOp& op) const {
    return model_.classify(op.op) == OpClass::kPureAccessor
               ? state.apply_accessor(op.op)
               : state.apply(op.op);
  }

  void count_state() {
    if (++states_ > limits_.max_states) {
      detail::throw_state_budget_exceeded(limits_.max_states, states_,
                                          segments_retired_,
                                          confirmed_cuts_ + 1, ops_seen_);
    }
  }

  std::string mismatch_text(const StreamOp& op, const Snapshot& before,
                            const Value& determined) const {
    std::ostringstream os;
    os << "p" << op.proc << " " << model_.describe(op.op) << " returned "
       << op.ret.to_string() << " but state " << before.to_string()
       << " determines " << determined.to_string();
    return os.str();
  }

  static constexpr const char* kNoCandidateText =
      "no operation is eligible to linearize next (real-time order cycle)";

  /// Track the peak resident footprint: everything O(open window) the
  /// checker holds -- window + unconfirmed segment ops, state-set entries,
  /// and the current segment's enumeration scratch (`extra`).  Witness
  /// chains are excluded (see CheckResult::max_resident_states).
  void bump_resident(std::size_t extra) {
    const std::size_t cur =
        window_.size() + tentative_.size() + alist_.size() + extra;
    if (cur > peak_resident_) peak_resident_ = cur;
  }

  const ObjectModel& model_;
  const CheckLimits limits_;

  // Open window + in-flight tracking.
  std::vector<StreamOp> window_;
  FlatMap<std::int64_t, std::size_t> open_ix_;  // in-flight only
  std::size_t in_flight_ = 0;
  Tick max_response_ = kNoTime;  // over responses since the last cut

  // The tentative segment awaiting confirmation (empty when there is
  // none), and the confirmed segment being enumerated.
  std::vector<StreamOp> tentative_;
  std::vector<StreamOp> retiring_;

  // Forward state set across everything retired so far, and its witnesses.
  std::vector<StateEntry> alist_;
  WitnessLog log_;

  // Enumeration scratch, reused by every segment.
  std::size_t procs_ = 0;
  std::vector<std::size_t> proc_begin_;
  std::vector<std::size_t> proc_ops_;
  std::vector<std::size_t> frontier_;
  std::vector<std::int64_t> path_;
  std::vector<Frame> stack_;
  std::size_t base_link_ = WitnessLog::kRoot;
  NodeIndex memo_;  ///< visited (frontier, state) nodes
  std::size_t memo_nodes_ = 0;
  std::vector<std::size_t> memo_frontier_;  ///< procs_ entries per node
  std::vector<Snapshot> memo_state_;
  std::vector<StateEntry> next_;  ///< successor state set being built
  NodeIndex finals_;              ///< fingerprint -> index into next_

  bool finalized_ = false;
  bool failed_ = false;
  std::string explanation_;
  std::size_t states_ = 0;
  std::size_t memo_hits_ = 0;
  std::size_t confirmed_cuts_ = 0;
  std::size_t segments_retired_ = 0;
  std::size_t ops_seen_ = 0;
  std::size_t completed_seen_ = 0;
  std::size_t max_window_ops_ = 0;
  std::size_t peak_resident_ = 0;
};

CheckResult StreamingChecker::Impl::finalize() {
  if (finalized_) {
    throw std::logic_error("StreamingChecker::finalize called twice");
  }
  finalized_ = true;
  CheckResult result;
  if (ops_seen_ == 0) {
    // Nothing was ever dispatched: the empty witness linearizes the empty
    // history (the offline checkers' trivial fast path).
    result.ok = true;
    result.early_exit = true;
    return result;
  }

  // Validate the last tentative cut: offline, a cut additionally requires
  // every pending invocation to come at or after the first completed
  // post-cut invocation.  All pending operations sit in the open window
  // (nothing was in flight at any trigger), so both sides of that test are
  // window-local.  Invalid (or trailing, with no completed operation after
  // it) means the offline segmentation never cut here: merge the segment
  // back into the window.  The merge preserves global and per-process
  // invocation order because every tentative operation was invoked strictly
  // before the trigger and every window operation at or after it.
  if (!tentative_.empty()) {
    Tick first_completed = kNoTime;
    Tick first_pending = kNoTime;
    for (const StreamOp& rec : window_) {
      Tick& slot = rec.completed() ? first_completed : first_pending;
      if (slot == kNoTime || rec.invoke < slot) slot = rec.invoke;
    }
    const bool valid =
        first_completed != kNoTime &&
        (first_pending == kNoTime || first_pending >= first_completed);
    if (valid) {
      std::swap(retiring_, tentative_);
      retire();
    } else {
      tentative_.insert(tentative_.end(),
                        std::make_move_iterator(window_.begin()),
                        std::make_move_iterator(window_.end()));
      std::swap(window_, tentative_);
      tentative_.clear();
    }
  }

  result.segments = confirmed_cuts_ + 1;
  if (failed_) {
    result.explanation = explanation_;
    result.states_explored = states_;
    result.memo_hits = memo_hits_;
    result.max_resident_states = peak_resident_;
    return result;
  }

  // Search the final window from each surviving state-set entry in order,
  // with one dead memo across entries (the memo the offline search keeps
  // for its last segment across backtracks into earlier segments); the
  // first success selects the same upstream final state -- and thus the
  // same witness -- as the offline search's backtracking would.  Pending
  // invocations go in token order, the trace order history_with_pending
  // gives them offline.
  std::vector<HistoryOp> comp_ops;
  std::vector<std::int64_t> comp_tokens;
  std::vector<const StreamOp*> pend_recs;
  for (const StreamOp& rec : window_) {
    if (rec.completed()) {
      comp_ops.push_back(
          HistoryOp{rec.proc, rec.op, rec.ret, rec.invoke, rec.response});
      comp_tokens.push_back(rec.token);
    } else {
      pend_recs.push_back(&rec);
    }
  }
  std::sort(pend_recs.begin(), pend_recs.end(),
            [](const StreamOp* a, const StreamOp* b) {
              return a->token < b->token;
            });
  std::vector<PendingInvocation> pend;
  pend.reserve(pend_recs.size());
  for (const StreamOp* rec : pend_recs) {
    pend.push_back(PendingInvocation{rec->proc, rec->op, rec->invoke});
  }
  const History final_window(std::move(comp_ops));

  detail::WglSearch search(
      model_, final_window, /*real_time_order=*/true, pend, limits_,
      detail::SearchScope{segments_retired_, confirmed_cuts_ + 1, ops_seen_});
  CheckResult acc;
  acc.states_explored = states_;
  acc.memo_hits = memo_hits_;
  acc.explanation = std::move(explanation_);
  const StateEntry* winner = nullptr;
  for (const StateEntry& entry : alist_) {
    if (search.run(entry.state, acc)) {
      winner = &entry;
      break;
    }
  }
  states_ = acc.states_explored;
  memo_hits_ = acc.memo_hits;
  explanation_ = std::move(acc.explanation);
  bump_resident(search.dead_states());

  if (winner != nullptr) {
    result.ok = true;
    // Stitch the witness: retired-segment runs in order, then the final
    // window's.  Tokens map to history_with_pending indices by rank among
    // the completed tokens (the witness is a permutation of exactly those).
    std::vector<std::int64_t> tokens = log_.stitch(winner->link);
    tokens.reserve(completed_seen_);
    for (std::size_t i : acc.witness) tokens.push_back(comp_tokens[i]);
    // Branch-local mismatches recorded on the way to a successful search
    // are not failures; report an explanation only without a witness.
    explanation_.clear();
    std::vector<std::int64_t> sorted = tokens;
    std::sort(sorted.begin(), sorted.end());
    result.witness.reserve(tokens.size());
    for (std::int64_t t : tokens) {
      result.witness.push_back(static_cast<std::size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), t) -
          sorted.begin()));
    }
  }
  result.explanation = explanation_;
  result.states_explored = states_;
  result.memo_hits = memo_hits_;
  result.max_resident_states = peak_resident_;
  return result;
}

StreamingChecker::StreamingChecker(const ObjectModel& model,
                                   const CheckOptions& options)
    : impl_(std::make_unique<Impl>(model, options.limits)) {}

StreamingChecker::~StreamingChecker() = default;

void StreamingChecker::attach(Simulator& sim) {
  Impl* impl = impl_.get();
  auto prev_invoke = sim.invoke_hook();
  auto prev_response = sim.response_hook();
  sim.set_invoke_hook([impl, prev_invoke](const OperationRecord& rec) {
    if (prev_invoke) prev_invoke(rec);
    impl->invoke(rec);
  });
  sim.set_response_hook([impl, prev_response](const OperationRecord& rec) {
    if (prev_response) prev_response(rec);
    impl->response(rec);
  });
}

void StreamingChecker::on_invoke(const OperationRecord& rec) {
  impl_->invoke(rec);
}

void StreamingChecker::on_response(const OperationRecord& rec) {
  impl_->response(rec);
}

CheckResult StreamingChecker::finalize() { return impl_->finalize(); }

std::size_t StreamingChecker::ops_seen() const { return impl_->ops_seen(); }
std::size_t StreamingChecker::segments_retired() const {
  return impl_->segments_retired();
}
std::size_t StreamingChecker::max_window_ops() const {
  return impl_->max_window_ops();
}
std::size_t StreamingChecker::max_resident_states() const {
  return impl_->max_resident_states();
}

CheckResult streaming_check_trace(const ObjectModel& model, const Trace& trace,
                                  const CheckOptions& options) {
  StreamingChecker checker(model, options);
  // Feed in (time, token, invoke-before-response) order.  Cut decisions are
  // insensitive to same-tick orderings, so any time-sorted replay matches
  // the live tap; invoke-before-response keeps a zero-latency operation's
  // own events well-formed, and the token tiebreak makes the replay a total
  // (deterministic) order.
  struct Ev {
    Tick time;
    std::int64_t token;
    int kind;  // 0 invoke, 1 response
    const OperationRecord* rec;
  };
  std::vector<Ev> events;
  events.reserve(trace.ops.size() * 2);
  for (const OperationRecord& rec : trace.ops) {
    if (rec.invoke_time == kNoTime) continue;  // never dispatched
    events.push_back(Ev{rec.invoke_time, rec.token, 0, &rec});
    if (rec.completed()) {
      events.push_back(Ev{rec.response_time, rec.token, 1, &rec});
    }
  }
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.token != b.token) return a.token < b.token;
    return a.kind < b.kind;
  });
  for (const Ev& ev : events) {
    if (ev.kind == 0) {
      checker.on_invoke(*ev.rec);
    } else {
      checker.on_response(*ev.rec);
    }
  }
  return checker.finalize();
}

}  // namespace linbound
