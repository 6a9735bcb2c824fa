// Linearizability and sequential-consistency checking (Wing & Gong style
// search with state memoization).
//
// Linearizability (Chapter III.B.4): there is a permutation pi of all
// operations in the complete run such that (a) pi is legal under the
// sequential specification, and (b) if op1's response precedes op2's
// invocation in real time, op1 precedes op2 in pi.
//
// Sequential consistency drops (b) down to per-process program order only --
// the consistency condition of Lipton & Sandberg / Attiya & Welch that the
// paper contrasts against.
//
// Search: walk the history with a per-process frontier; at each step any
// frontier operation that is not real-time-preceded by another remaining
// operation may be linearized next, provided its recorded return equals the
// return determined by the current object state.  Visited nodes -- (frontier,
// pending-taken set, state) -- are memoized in an open-addressed table,
// every hash hit confirmed by exact key equality and ObjectState::equals:
// hashing is a shortcut, never the verdict, so results stay sound in both
// directions.  Object states are copy-on-write snapshots (spec/snapshot.h):
// branching is a refcount bump, pure accessors apply without cloning at all,
// and memoized states are retained by handle instead of by string.
//
// One search engine, detail::WglSearch, with two completion policies: first
// success (every entry point below, and the StreamingChecker's final window)
// and all finals (the StreamingChecker's segment retirement).  It walks an
// explicit stack, so a million-op history needs no deep thread stack, and it
// can start from any object state with one memo kept across several starts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "checker/history.h"
#include "spec/object_model.h"
#include "spec/snapshot.h"

namespace linbound {

struct CheckResult {
  bool ok = false;
  /// On success: indices into history.ops() in linearization order.  (On a
  /// failed single-process replay: the legal prefix before the mismatch.)
  std::vector<std::size_t> witness;
  /// On failure: a human-readable account of the first dead end.
  std::string explanation;
  std::size_t states_explored = 0;
  /// Search nodes answered by the dead-state memo table instead of
  /// re-exploration.
  std::size_t memo_hits = 0;
  /// True when the trivial-history fast path (empty or single-process
  /// history: no interleaving to search) decided the verdict.
  bool early_exit = false;
  /// Quiescent-cut segments the streaming checker split the run into (its
  /// retired segments plus the final window).  Always 1 for the offline
  /// entry points, which search the history whole.
  std::size_t segments = 1;
  /// Peak count of search states the checker held resident at once.  For
  /// the offline checkers this is the memo population less the nodes still
  /// open on a successful path (the nodes proven dead), which only grows
  /// over a call -- the whole point of the streaming checker
  /// (checker/streaming_checker.h), whose resident set is the open window
  /// plus one segment's scratch and is measured with the same field, so the
  /// O(window)-vs-O(history) claim is a number, not an assertion
  /// (BENCH_perf.json streaming_checker_max_resident_states).  Witness
  /// chains are excluded on both paths: a witness is a permutation of the
  /// whole history and is output, not search state.
  std::size_t max_resident_states = 0;

  /// Fraction of node visits the memo table absorbed.
  double memo_hit_rate() const {
    const std::size_t visits = states_explored + memo_hits;
    return visits ? static_cast<double>(memo_hits) / visits : 0.0;
  }

  explicit operator bool() const { return ok; }
};

struct CheckLimits {
  /// Abort (std::runtime_error) after exploring this many distinct
  /// (frontier, state) pairs.  The search is exponential in the number of
  /// simultaneously pending operations; the budget turns a pathological
  /// history into a loud error instead of an OOM.
  ///
  /// Semantics (normative for every checker entry point): the budget is
  /// granted PER CHECKER CALL -- one check_linearizable* invocation, or one
  /// StreamingChecker run from its first event through finalize(), gets one
  /// fresh budget, a single counter that is never replenished mid-call.
  /// Harness sweeps check many histories, so each history gets its own
  /// budget -- intentional: the budget bounds the blast radius of a single
  /// pathological history, not the sweep.  The exceeded-budget error
  /// message reports states explored, the segment being searched, and the
  /// history size (see detail::WglSearch::count_state, the one throw
  /// site).
  std::size_t max_states = 20'000'000;
};

/// Checker configuration shared by the offline entry points and the
/// StreamingChecker (checker/streaming_checker.h).  Every check runs on the
/// caller's thread.
struct CheckOptions {
  CheckLimits limits;
  /// Ignored; kept only because perfbench/harness.cpp sets it.
  int jobs = 1;
};

/// Is the history linearizable w.r.t. the model?
CheckResult check_linearizable(const ObjectModel& model, const History& history,
                               const CheckLimits& limits = {});

/// Is the history sequentially consistent w.r.t. the model?
CheckResult check_sequentially_consistent(const ObjectModel& model,
                                          const History& history,
                                          const CheckLimits& limits = {});

/// Linearizability of a history with pending invocations (crashed
/// processes): each pending operation may be linearized at any point after
/// everything that real-time-precedes its invocation or precedes it in its
/// process's program order -- with an unconstrained return value -- or
/// omitted entirely (Herlihy-Wing's treatment of incomplete histories).
CheckResult check_linearizable_with_pending(
    const ObjectModel& model, const History& history,
    const std::vector<PendingInvocation>& pending, const CheckLimits& limits = {});

/// The same check under CheckOptions (only `limits` applies offline).
CheckResult check_linearizable_with_pending(
    const ObjectModel& model, const History& history,
    const std::vector<PendingInvocation>& pending, const CheckOptions& options);

namespace detail {

/// Where a search sits within its caller's run, for the budget message.
struct SearchScope {
  std::size_t segment_index = 0;
  std::size_t segment_count = 1;
  std::size_t history_ops = 0;
};

/// Open-addressed index from 64-bit keys to node numbers, cleared in O(1)
/// by bumping a generation counter (a slot is live only when stamped with
/// the current generation).  Distinct nodes may share a key: every node
/// filed under an equal key goes to the caller's exact comparison, so the
/// hash is a shortcut, never the verdict.
class NodeIndex {
 public:
  void clear() {
    size_ = 0;
    if (++gen_ == 0) {  // wrapped: stale stamps could alias the new one
      std::fill(slots_.begin(), slots_.end(), Slot{});
      gen_ = 1;
    }
  }
  bool empty() const { return size_ == 0; }

  /// File `node` under `key` unless a node already filed there satisfies
  /// `same`; true when filed.
  template <typename Same>
  bool insert_unique(std::uint64_t key, std::size_t node, Same&& same) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::uint64_t h = mix(key);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {
        s = Slot{h, gen_, static_cast<std::uint32_t>(node)};
        ++size_;
        return true;
      }
      if (s.hash == h && same(static_cast<std::size_t>(s.node))) return false;
    }
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t gen = 0;
    std::uint32_t node = 0;
  };

  /// The splitmix64 finalizer, so the low bits index a power-of-two table.
  static std::uint64_t mix(std::uint64_t h) {
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
  }
  void grow();

  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  std::uint32_t gen_ = 1;
  std::size_t size_ = 0;
};

/// The one linearizability search: every entry point above, and both
/// halves of the StreamingChecker, run it.  load() hands it the operations;
/// the search then walks them with a per-process frontier, from any start
/// state, under one of two completion policies:
///   - first success, run(): stop at the first complete linearization (the
///     offline entry points and the streaming final window);
///   - all finals, run_all(): report every complete linearization and keep
///     going (the streaming checker's segment retirement).
/// One memo of visited (frontier, pending-taken set, state) nodes persists
/// across the starts tried between two load() calls, so no start
/// re-explores a node an earlier one exhausted.  The search walks an
/// explicit stack, so history length never touches the thread stack.
class WglSearch {
 public:
  WglSearch(const ObjectModel& model, const CheckLimits& limits);

  /// Search `history` (which must outlive the search) plus `pending`, with
  /// or without real-time order; clears the memo.
  void load(const History& history,
            const std::vector<PendingInvocation>& pending,
            bool real_time_order, const SearchScope& scope);
  /// Search `ops` (invocation-ordered, as a stream delivers them) under
  /// real-time order.  An operation with no response yet (`response ==
  /// kNoTime`) is not searched: the caller lists it in `pending` instead.
  /// Clears the memo.
  void load(const std::vector<HistoryOp>& ops,
            const std::vector<PendingInvocation>& pending,
            const SearchScope& scope);

  /// First success: is there a linearization of every loaded operation
  /// starting from `start`?  Accumulates into `result`: states_explored
  /// (also the budget counter, so a caller can carry one budget across
  /// several searches), memo_hits, early_exit, and the first mismatch into
  /// an empty explanation.  On success result.witness holds the chosen
  /// operation indices.
  bool run(const Snapshot& start, CheckResult& result);

  /// All finals: calls emit(entry, final_state) for every complete
  /// linearization from each of `starts` (entries with a `state`), in
  /// order; path() holds the chosen operation indices meanwhile, and emit
  /// may move the state away.  Counters and explanation accumulate into
  /// `acc` as for run().
  template <typename Entry, typename Emit>
  void run_all(const std::vector<Entry>& starts, CheckResult& acc,
               Emit&& emit) {
    if (starts.size() == 1 && replayable_) {
      if (replay(starts.front().state, acc)) emit(starts.front(), final_);
      return;
    }
    for (const Entry& entry : starts) {
      if (begin(entry.state, acc)) emit(entry, final_);
      while (next_final(acc)) emit(entry, final_);
    }
  }

  const std::vector<std::size_t>& path() const { return chosen_; }

  /// Memo entries minus the nodes still open (on the path of a success):
  /// the nodes proven dead, i.e. the resident search state.
  std::size_t dead_states() const { return memo_nodes_ - stack_.size(); }

 private:
  /// One open node: its state, and the next move to try (pending
  /// invocation q < pending size, then process q - pending size).
  struct Frame {
    Snapshot state;
    std::size_t next_move = 0;
    bool any_candidate = false;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Build proc_begin_/proc_ops_ from the operation vector load() took.
  void index_ops();
  void reset(const std::vector<PendingInvocation>& pending,
             const SearchScope& scope);
  void clear_memo();
  bool replay(const Snapshot& start, CheckResult& acc);
  bool begin(const Snapshot& start, CheckResult& acc);
  bool next_final(CheckResult& acc);
  bool enter(Snapshot& state, CheckResult& acc);
  void undo(std::size_t move);
  Value apply(Snapshot& state, const Operation& op) const;
  void count_state(CheckResult& acc) const;
  std::size_t front(std::size_t p) const;
  bool eligible_at(Tick inv, std::size_t self) const;
  bool pending_eligible(const PendingInvocation& q) const;
  void note_mismatch(const HistoryOp& op, const Snapshot& before,
                     const Value& determined, CheckResult& acc) const;

  const ObjectModel& model_;
  const CheckLimits limits_;

  // The loaded operations: process p's searched operations, in program
  // order, are proc_ops_[proc_begin_[p], proc_begin_[p + 1]).
  const std::vector<HistoryOp>* ops_ = nullptr;
  const std::vector<PendingInvocation>* pending_ = nullptr;
  bool real_time_order_ = true;
  SearchScope scope_;
  std::size_t procs_ = 0;
  bool replayable_ = false;  ///< one process, nothing pending: replay()
  /// proc_begin_, key_ and the memo match the loaded operations; false
  /// after a replayable load(ops), which fills proc_ops_ alone.
  bool indexed_ = false;
  std::vector<std::size_t> proc_begin_;
  std::vector<std::size_t> proc_ops_;

  // The search: key_ is the node identity without its state -- the
  // frontier of each process, then a taken bit per pending invocation.
  std::vector<std::size_t> key_;
  std::vector<std::size_t> chosen_;
  std::vector<Frame> stack_;
  Snapshot final_;         ///< state of the last complete linearization
  bool at_final_ = false;  ///< next_final() resumes past a completion
  NodeIndex memo_;         ///< visited nodes
  std::size_t memo_nodes_ = 0;
  std::vector<std::size_t> memo_keys_;  ///< key_.size() entries per node
  std::vector<Snapshot> memo_states_;
};

}  // namespace detail

}  // namespace linbound
