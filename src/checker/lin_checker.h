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
// return determined by the current object state.  Dead (frontier, state)
// pairs are memoized in hash buckets keyed by (frontier, pending set, state
// fingerprint), with every bucket hit confirmed by exact frontier equality
// and ObjectState::equals -- hashing is a shortcut, never the verdict, so
// results stay sound in both directions.  Object states are copy-on-write
// snapshots (spec/snapshot.h): branching is a refcount bump, pure accessors
// apply without cloning at all, and memoized dead states are retained by
// handle instead of by string.
//
// One search core: every entry point below, and the StreamingChecker's
// final-window search, run detail::WglSearch.  It walks an explicit stack,
// so a million-op history needs no deep thread stack, and it can start from
// any object state with one dead memo kept across several starts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
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
  /// the offline checkers this is the dead-memo population, which only
  /// grows over a call -- the whole point of the streaming checker
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
  /// history size (see detail::throw_state_budget_exceeded, the one throw
  /// site).
  std::size_t max_states = 20'000'000;
};

/// Checker configuration shared by the offline entry points and the
/// StreamingChecker (checker/streaming_checker.h).  Every value returns the
/// same verdict, witness and explanation; the knobs trade wall-clock and
/// memory only.
struct CheckOptions {
  CheckLimits limits;
  /// StreamingChecker only: <= 1 checks inline inside the simulator hooks;
  /// > 1 pipelines the events through a bounded ring to one checker thread.
  /// Offline checks always run on the caller's thread.
  int jobs = 1;
  /// Bounded ring capacity (events) for the pipelined StreamingChecker.
  std::size_t ring_capacity = 4096;
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

/// The same checks under CheckOptions (only `limits` applies offline).
CheckResult check_linearizable(const ObjectModel& model, const History& history,
                               const CheckOptions& options);
CheckResult check_linearizable_with_pending(
    const ObjectModel& model, const History& history,
    const std::vector<PendingInvocation>& pending, const CheckOptions& options);

namespace detail {

/// The single throw site enforcing CheckLimits::max_states (all checker
/// paths funnel here so the message stays uniform): reports states
/// explored, the segment under search, and the history size.
[[noreturn]] void throw_state_budget_exceeded(std::size_t max_states,
                                              std::size_t states_explored,
                                              std::size_t segment_index,
                                              std::size_t segment_count,
                                              std::size_t history_ops);

/// Where a search sits within its caller's run, for the budget message.
struct SearchScope {
  std::size_t segment_index = 0;
  std::size_t segment_count = 1;
  std::size_t history_ops = 0;
};

/// The one first-success WGL search behind every entry point above and the
/// StreamingChecker's final window.  run() searches from a given start
/// state; the dead-state memo persists across run() calls on one instance,
/// so a caller trying several start states in order (the streaming
/// checker's state set) never re-explores a node an earlier start proved
/// dead.  The search walks an explicit stack, so history length never
/// touches the thread stack.
class WglSearch {
 public:
  /// `history` and `pending` must outlive the search.
  WglSearch(const ObjectModel& model, const History& history,
            bool real_time_order, const std::vector<PendingInvocation>& pending,
            const CheckLimits& limits, const SearchScope& scope);

  /// Is there a linearization of the whole history starting from `start`?
  /// Accumulates into `result`: states_explored (also the budget counter,
  /// so a caller can carry one budget across several searches), memo_hits,
  /// early_exit, and the first mismatch into an empty explanation.  On
  /// success result.witness holds the chosen history indices.
  bool run(const Snapshot& start, CheckResult& result);

  /// Dead-memo entries held (never shrinks): the resident search state.
  std::size_t dead_states() const { return dead_count_; }

 private:
  struct DeadEntry {
    std::vector<std::size_t> frontier;
    std::vector<bool> pending_taken;
    Snapshot state;
  };
  /// One open node of the depth-first search: its state, its memo hash,
  /// and the next move to try (pending invocation q < pending.size(), then
  /// process q - pending.size()).
  struct Frame {
    Snapshot state;
    std::uint64_t hash = 0;
    std::size_t next_move = 0;
    bool any_candidate = false;
  };
  enum class Entered { kSolved, kDead, kOpen };

  bool replay(const Snapshot& start, CheckResult& result);
  bool search(const Snapshot& start, CheckResult& result);
  Entered enter(Snapshot state, CheckResult& result);
  void undo(std::size_t move);
  void count_state(CheckResult& result) const;
  std::optional<std::size_t> front(std::size_t p) const;
  bool eligible_at(Tick inv, std::optional<std::size_t> self) const;
  bool pending_eligible(const PendingInvocation& q) const;
  std::uint64_t memo_hash(const Snapshot& state) const;
  bool known_dead(std::uint64_t h, const Snapshot& state) const;
  std::string mismatch_text(const HistoryOp& op, const Snapshot& before,
                            const Value& determined) const;

  const ObjectModel& model_;
  const History& history_;
  const bool real_time_order_;
  const std::vector<PendingInvocation>& pending_;
  const CheckLimits limits_;
  const SearchScope scope_;
  std::vector<std::size_t> frontier_;
  std::vector<bool> pending_taken_;
  std::vector<std::size_t> chosen_;
  std::vector<Frame> stack_;
  std::size_t dead_count_ = 0;
  std::unordered_map<std::uint64_t, std::vector<DeadEntry>> dead_;
};

}  // namespace detail

}  // namespace linbound
