// Streaming online linearizability checking: bounded-memory verification of
// million-op runs *during* simulation.
//
// The offline checker (lin_checker.h) needs the whole history in RAM before
// it can search it.  The streaming checker consumes the operation stream as
// the simulator produces it (Simulator invoke/response hooks), detects
// quiescent cuts incrementally, and retires each confirmed segment eagerly
// -- so its resident state is O(open window), not O(history), and
// heavy-traffic runs get full verification instead of bound spot-checks.
//
// How it works (soundness argument in DESIGN.md, streaming section):
//
//   1. Online cut detection with deferred confirmation.  An in-flight
//      counter tracks invoked-but-unanswered operations.  An invocation
//      arriving at time t with nothing in flight and every response so far
//      strictly before t closes the current window as a *tentative* segment.
//      Tentative, because the offline cut condition also requires every
//      never-responding (pending) invocation to come at or after the first
//      completed post-cut invocation -- unknowable online.  The resolution:
//      a tentative cut is *confirmed* exactly when the next tentative cut
//      triggers (nothing in flight again proves the whole segment between
//      them completed, so no pending invocation can predate it), and the
//      final tentative cut is validated explicitly at finalize() -- merged
//      back into the open window if invalid.  Confirmed streaming cuts are
//      exactly segment_history's cuts.
//
//   2. Forward state-set threading.  The offline search threads one object
//      state across a cut and backtracks into earlier segments when a later
//      one fails.  Retiring segments eagerly forbids backtracking, so the
//      streaming checker carries the whole frontier forward instead: an
//      ordered list of the *distinct* final states a prefix of segments can
//      reach, each entry keeping a witness-chain backpointer.  A confirmed
//      segment goes through the one search engine (detail::WglSearch,
//      lin_checker.h) under its all-finals policy, from each entry in order
//      with one memo across entries; the run fails the moment a segment
//      yields no successor state.  The final window (with any pending
//      invocations) goes through the same engine under the offline
//      checker's first-success policy, once per state-set entry in order
//      with one memo.  Because the offline search's memo at a downstream
//      segment root deduplicates threaded states, it attempts downstream
//      searches in exactly this list's order -- which is why the verdict
//      and witness come out byte-identical to the offline checker.
//      (The *explanation* on failure is deterministic and non-empty but may
//      differ: the offline search interleaves downstream mismatches between
//      an upstream segment's final states, a traversal order eager
//      retirement deliberately gives up.  See DESIGN.md.)
//
//   3. Inline, allocation-free retirement.  The checker runs inside the
//      simulator hooks on the simulator's own thread (how per-shard checking
//      rides the PDES drain).  Its scratch -- segment buffers, the search
//      engine's per-process index, memo and stack, and the witness log --
//      lives for the whole run, so retiring a segment allocates nothing but
//      copy-on-write clones of the object states it mutates (and the
//      witness log's amortized growth).  A segment from one process,
//      threaded from one state, replays in program order (the engine's
//      fast path).  The search walks an explicit stack, so segment length
//      never touches the thread stack.
#pragma once

#include <cstddef>
#include <memory>

#include "checker/lin_checker.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "spec/object_model.h"

namespace linbound {

/// Online checker for one object (one Simulator's operation stream).
/// Feed it with attach() -- which chains onto any hooks already installed
/// (core/driver.h listens for responses too) -- or manually via
/// on_invoke/on_response in simulated-time order; then finalize() exactly
/// once, after the run, to search the final open window (with any pending
/// invocations) and collect the CheckResult.
///
/// The returned witness is indexed like the offline checkers': positions in
/// the History that history_with_pending(trace) builds (completed
/// operations in trace order).
class StreamingChecker {
 public:
  /// `options.limits` is one budget for the whole run (a single counter
  /// across every segment enumeration and the final-window search).  The
  /// checker runs on the caller's thread; `options.jobs` is ignored.
  explicit StreamingChecker(const ObjectModel& model,
                            const CheckOptions& options = {});
  ~StreamingChecker();

  StreamingChecker(const StreamingChecker&) = delete;
  StreamingChecker& operator=(const StreamingChecker&) = delete;

  /// Install the tap on `sim`, composing with hooks already present (they
  /// keep firing first).  The model must outlive the checker; the checker
  /// must outlive the simulator run (or the hooks must not fire again).
  void attach(Simulator& sim);

  /// Manual feed (replay drivers, tests): events must arrive in
  /// simulated-time order, each operation's invoke before its response.
  void on_invoke(const OperationRecord& rec);
  void on_response(const OperationRecord& rec);

  /// Check the final open window against the pending invocations and
  /// assemble the result.  Call exactly once; the checker is spent
  /// afterwards.  A state-budget overrun throws from the offending hook
  /// (or from here, in the final-window search).
  CheckResult finalize();

  // --- measurement (stable once finalize() returned) ---
  std::size_t ops_seen() const;          ///< invocations consumed
  std::size_t segments_retired() const;  ///< confirmed segments enumerated
  std::size_t max_window_ops() const;    ///< largest open window (ops)
  /// Peak resident search state: open-window ops + unconfirmed segment ops
  /// + state-set entries + one segment's visited-memo scratch.  The
  /// O(window) number the bench gates (witness chains excluded -- they are
  /// the output; see CheckResult::max_resident_states).
  std::size_t max_resident_states() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Replay a finished trace through a StreamingChecker: events are fed in
/// (time, token, invoke-before-response) order, which reproduces the live
/// tap's segmentation exactly (cut decisions are insensitive to same-tick
/// orderings; DESIGN.md).  The differential anchor for tests and benches:
/// for any trace, verdict and witness equal
/// check_linearizable[_with_pending](model, history_with_pending(trace)...)
/// at every CheckOptions value.
CheckResult streaming_check_trace(const ObjectModel& model, const Trace& trace,
                                  const CheckOptions& options = {});

}  // namespace linbound
