// Streaming online linearizability checker (see streaming_checker.h for the
// architecture and DESIGN.md for the soundness argument).
//
// Layout: StreamingChecker::Impl is the checker -- cut detection, eager
// segment retirement via forward state-set threading, and the final-window
// search, both through the one search engine (detail::WglSearch,
// lin_checker.h) under its all-finals and first-success policies.  All of
// its scratch lives for the whole run: retiring a segment allocates nothing
// but the copy-on-write clones of the object states it mutates.  Window
// operations are HistoryOps, the engine's own representation, with their
// trace tokens in a parallel vector.  streaming_check_trace is the replay
// driver used by tests and benches.
#include "checker/streaming_checker.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "spec/snapshot.h"

namespace linbound {
namespace {

/// A run of operations as the stream delivered them (invocation order),
/// with each one's trace token alongside.  `response == kNoTime` while an
/// operation is in flight; one that never responds (crash mid-op, give-up)
/// simply stays that way and finalize() treats it as pending -- the same
/// classification history_with_pending makes offline.
struct OpRun {
  std::vector<HistoryOp> ops;
  std::vector<std::int64_t> tokens;

  bool empty() const { return ops.empty(); }
  std::size_t size() const { return ops.size(); }
  void clear() {
    ops.clear();
    tokens.clear();
  }
  friend void swap(OpRun& a, OpRun& b) {
    a.ops.swap(b.ops);
    a.tokens.swap(b.tokens);
  }
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

  /// Append every token on the chain ending at `last` to `out`, oldest
  /// segment first.  The chain is walked newest first, so each link's run
  /// is written back to front into space sized by a first walk.
  void stitch(std::size_t last, std::vector<std::size_t>& out) const {
    std::size_t end = out.size();
    for (std::size_t l = last; l != kRoot; l = links[l].parent) {
      end += links[l].len;
    }
    out.resize(end);
    for (std::size_t l = last; l != kRoot; l = links[l].parent) {
      const auto first =
          tokens.begin() + static_cast<std::ptrdiff_t>(links[l].begin);
      end -= links[l].len;
      std::transform(first, first + static_cast<std::ptrdiff_t>(links[l].len),
                     out.begin() + static_cast<std::ptrdiff_t>(end),
                     [](std::int64_t t) { return static_cast<std::size_t>(t); });
    }
  }
};

/// One entry of the forward state set: a distinct object state reachable by
/// linearizing every retired segment, in first-reached order.
struct StateEntry {
  Snapshot state;
  std::size_t link = WitnessLog::kRoot;
};

const std::vector<PendingInvocation> kNoPending;

/// Replace each token in `w` (each present once) by its rank among them:
/// the number of tokens in `w` below it.  Tokens are stored as size_t
/// (bit-for-bit int64) and ranked by their signed value.  A bitmap over the
/// tokens' span, with a set-bit count before each word, ranks in place;
/// tokens too sparse for a bitmap the size of `w` are ranked in a sorted
/// copy instead.
void rank_tokens(std::vector<std::size_t>& w) {
  if (w.empty()) return;
  const auto signed_less = [](std::size_t a, std::size_t b) {
    return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
  };
  const std::size_t lo = *std::min_element(w.begin(), w.end(), signed_less);
  const std::size_t hi = *std::max_element(w.begin(), w.end(), signed_less);
  // Unsigned subtraction gives the signed distance: hi >= lo as int64.
  const std::size_t words = (hi - lo) / 64 + 1;
  if (words > w.size()) {
    std::vector<std::size_t> sorted = w;
    std::sort(sorted.begin(), sorted.end(), signed_less);
    for (std::size_t& t : w) {
      t = static_cast<std::size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), t, signed_less) -
          sorted.begin());
    }
    return;
  }
  std::vector<std::uint64_t> bits(words, 0);
  for (std::size_t t : w) bits[(t - lo) / 64] |= std::uint64_t{1} << ((t - lo) % 64);
  std::vector<std::uint32_t> before(words);
  std::uint32_t count = 0;
  for (std::size_t k = 0; k < words; ++k) {
    before[k] = count;
    count += static_cast<std::uint32_t>(std::popcount(bits[k]));
  }
  for (std::size_t& t : w) {
    const std::size_t off = t - lo;
    const std::uint64_t below = (std::uint64_t{1} << (off % 64)) - 1;
    t = before[off / 64] +
        static_cast<std::size_t>(std::popcount(bits[off / 64] & below));
  }
}

}  // namespace

/// The single-threaded checker around the search engine.  Feed
/// invoke()/response() in simulated-time order; finalize() exactly once at
/// the end.
struct StreamingChecker::Impl {
 public:
  Impl(const ObjectModel& model, const CheckLimits& limits)
      : search_(model, limits) {
    alist_.push_back(StateEntry{Snapshot::initial(model)});
  }

  void invoke(const OperationRecord& rec) {
    maybe_cut(rec.invoke_time);
    open_ix_.insert_or_assign(rec.token, window_.size());
    HistoryOp& op = window_.ops.emplace_back();
    op.proc = rec.proc;
    op.op = rec.op;
    op.invoke = rec.invoke_time;
    op.response = kNoTime;
    window_.tokens.push_back(rec.token);
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
    HistoryOp& op = window_.ops[*ix];
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
    swap(retiring_, tentative_);
    swap(tentative_, window_);
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

  detail::SearchScope scope() const {
    return detail::SearchScope{segments_retired_, confirmed_cuts_ + 1,
                               ops_seen_};
  }

  // --- forward state-set threading over a confirmed segment -----------------

  /// Replace the state set with every distinct final state of `seg`, in
  /// first-reached order: the search's all-finals policy from each current
  /// entry in order, with one visited memo across entries.  An empty
  /// successor set is the (final) verdict: no linearization of the prefix
  /// extends through this segment.
  void advance(const OpRun& seg) {
    search_.load(seg.ops, kNoPending, scope());
    const std::size_t explored = acc_.states_explored;
    // Dedup by fingerprint and equals, filed lazily: most segments have one
    // final state, which needs no index.
    auto file = [&](std::size_t j, const Snapshot& state) {
      return finals_.insert_unique(state.fingerprint(), j, [&](std::size_t k) {
        return next_[k].state.equals(state);
      });
    };
    search_.run_all(alist_, acc_, [&](const StateEntry& from,
                                      Snapshot& state) {
      if (next_.size() == 1 && finals_.empty()) file(0, next_[0].state);
      if (!next_.empty() && !file(next_.size(), state)) return;
      const std::size_t begin = log_.tokens.size();
      for (std::size_t i : search_.path()) log_.tokens.push_back(seg.tokens[i]);
      next_.push_back(StateEntry{std::move(state), log_.link(from.link, begin)});
    });
    // The segment's search scratch: one node per state explored.
    bump_resident(seg.size() + (acc_.states_explored - explored) +
                  next_.size());
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

  /// Track the peak resident footprint: everything O(open window) the
  /// checker holds -- window + unconfirmed segment ops, state-set entries,
  /// and the current segment's search scratch (`extra`).  Witness chains
  /// are excluded (see CheckResult::max_resident_states).
  void bump_resident(std::size_t extra) {
    const std::size_t cur =
        window_.size() + tentative_.size() + alist_.size() + extra;
    if (cur > peak_resident_) peak_resident_ = cur;
  }

  detail::WglSearch search_;

  // Open window + in-flight tracking.
  OpRun window_;
  FlatMap<std::int64_t, std::size_t> open_ix_;  // in-flight only
  std::size_t in_flight_ = 0;
  Tick max_response_ = kNoTime;  // over responses since the last cut

  // The tentative segment awaiting confirmation (empty when there is
  // none), and the confirmed segment being enumerated.
  OpRun tentative_;
  OpRun retiring_;

  // Forward state set across everything retired so far, and its witnesses.
  std::vector<StateEntry> alist_;
  WitnessLog log_;
  std::vector<StateEntry> next_;  ///< successor state set being built
  detail::NodeIndex finals_;      ///< fingerprint -> index into next_

  /// The search's accumulator across every segment and the final window:
  /// states_explored (one budget counter for the run), memo_hits, the
  /// explanation, and the final window's witness.
  CheckResult acc_;
  bool finalized_ = false;
  bool failed_ = false;
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
  // Nothing dispatched at all: the empty final window below takes the
  // offline checkers' trivial fast path, and reports it as they do.
  result.early_exit = ops_seen_ == 0;

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
    for (const HistoryOp& op : window_.ops) {
      Tick& slot = op.response != kNoTime ? first_completed : first_pending;
      if (slot == kNoTime || op.invoke < slot) slot = op.invoke;
    }
    const bool valid =
        first_completed != kNoTime &&
        (first_pending == kNoTime || first_pending >= first_completed);
    if (valid) {
      swap(retiring_, tentative_);
      retire();
    } else {
      tentative_.ops.insert(tentative_.ops.end(), window_.ops.begin(),
                            window_.ops.end());
      tentative_.tokens.insert(tentative_.tokens.end(),
                               window_.tokens.begin(), window_.tokens.end());
      swap(window_, tentative_);
      tentative_.clear();
    }
  }

  result.segments = confirmed_cuts_ + 1;
  if (!failed_) {
    // Search the final window from each surviving state-set entry in order,
    // with one memo across entries (the memo the offline search keeps for
    // its last segment across backtracks into earlier segments); the first
    // success selects the same upstream final state -- and thus the same
    // witness -- as the offline search's backtracking would.  Pending
    // invocations go in token order, the trace order history_with_pending
    // gives them offline.
    std::map<std::int64_t, PendingInvocation> by_token;
    for (std::size_t i = 0; i < window_.size(); ++i) {
      const HistoryOp& op = window_.ops[i];
      if (op.response != kNoTime) continue;
      by_token.emplace(window_.tokens[i],
                       PendingInvocation{op.proc, op.op, op.invoke});
    }
    std::vector<PendingInvocation> pend;
    for (auto& [token, q] : by_token) pend.push_back(std::move(q));
    search_.load(window_.ops, pend, scope());
    const StateEntry* winner = nullptr;
    for (const StateEntry& entry : alist_) {
      if (search_.run(entry.state, acc_)) {
        winner = &entry;
        break;
      }
    }
    bump_resident(search_.dead_states());

    if (winner != nullptr) {
      result.ok = true;
      // Stitch the witness's tokens in place: retired-segment runs in
      // order, then the final window's.  Tokens map to history_with_pending
      // indices by rank among the completed tokens (the witness is a
      // permutation of exactly those).
      std::vector<std::size_t>& witness = result.witness;
      witness.reserve(completed_seen_);
      log_.stitch(winner->link, witness);
      for (std::size_t i : acc_.witness) {
        witness.push_back(static_cast<std::size_t>(window_.tokens[i]));
      }
      rank_tokens(witness);
      // Branch-local mismatches recorded on the way to a successful search
      // are not failures; report an explanation only without a witness.
      acc_.explanation.clear();
    }
  }
  result.explanation = acc_.explanation;
  result.states_explored = acc_.states_explored;
  result.memo_hits = acc_.memo_hits;
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
  // Feed in (time, trace index, invoke-before-response) order, each op
  // under its trace index as its token: the witness ranks tokens, and
  // history_with_pending numbers ops in trace order, so a trace whose
  // tokens do not rise in trace order (any read from text) still gets the
  // offline witness.  Cut decisions are insensitive to same-tick orderings,
  // so any time-sorted replay matches the live tap; invoke-before-response
  // keeps a zero-latency operation's own events well-formed, and the index
  // tiebreak makes the replay a total (deterministic) order.
  struct Ev {
    Tick time;
    std::size_t index;  // into trace.ops
    int kind;  // 0 invoke, 1 response
  };
  const OpLog& ops = trace.ops;
  std::vector<Ev> events;
  events.reserve(ops.size() * 2);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops.invoke_time(i) == kNoTime) continue;  // never dispatched
    events.push_back(Ev{ops.invoke_time(i), i, 0});
    if (ops.completed(i)) events.push_back(Ev{ops.response_time(i), i, 1});
  }
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.index != b.index) return a.index < b.index;
    return a.kind < b.kind;
  });
  for (const Ev& ev : events) {
    OperationRecord rec = ops[ev.index];
    rec.token = static_cast<std::int64_t>(ev.index);
    if (ev.kind == 0) {
      checker.on_invoke(rec);
    } else {
      checker.on_response(rec);
    }
  }
  return checker.finalize();
}

}  // namespace linbound
