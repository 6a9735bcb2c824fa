// Streaming online linearizability checker (see streaming_checker.h for the
// architecture and DESIGN.md for the soundness argument).
//
// Layout: Core is the single-threaded engine -- cut detection, eager segment
// retirement via forward state-set threading, and the final-window search
// through the shared WGL core (detail::WglSearch, lin_checker.h).
// EventRing + StreamingChecker::Impl wrap it in the inline-vs-pipelined
// feeding modes; streaming_check_trace is the replay driver used by tests
// and benches.
#include "checker/streaming_checker.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spec/snapshot.h"

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

/// Per-process index lists over one segment's operations.  Operations arrive
/// in invocation-time order and a process's operations never overlap, so the
/// arrival-order sublist of each process IS its by_process (invoke-sorted)
/// order -- no sort needed.
struct SegIndex {
  std::vector<std::vector<std::size_t>> per_proc;

  void build(const std::vector<StreamOp>& ops) {
    per_proc.clear();
    ProcessId max_pid = -1;
    for (const StreamOp& rec : ops) max_pid = std::max(max_pid, rec.proc);
    per_proc.assign(static_cast<std::size_t>(max_pid + 1), {});
    for (std::size_t i = 0; i < ops.size(); ++i) {
      per_proc[static_cast<std::size_t>(ops[i].proc)].push_back(i);
    }
  }
};

/// Witness bookkeeping for the forward state set: each retained final state
/// points back at the segment-local linearization (operation tokens) chosen
/// on the path that first reached it, chained across segments.  Chains are
/// shared (shared_ptr) between entries with a common prefix and are excluded
/// from the resident-state metric: they are the output being accumulated,
/// not search state.
struct ChainNode {
  std::shared_ptr<const ChainNode> prev;
  std::vector<std::int64_t> path;
};

/// Chains grow one node per retired segment -- hundreds of thousands of
/// links on a million-op run -- so letting shared_ptr unwind one recursively
/// (each node's destructor destroying its prev) overflows the stack.
/// Dismantle iteratively instead: pop exclusively owned heads one at a
/// time, stopping at the first node another chain still shares (whoever
/// drops that chain continues the teardown the same way).
void release_chain(std::shared_ptr<const ChainNode>&& head) {
  while (head && head.use_count() == 1) {
    std::shared_ptr<const ChainNode> prev =
        std::move(const_cast<ChainNode*>(head.get())->prev);
    head = std::move(prev);
  }
  head.reset();
}

/// One entry of the forward state set: a distinct object state reachable by
/// linearizing every retired segment, in first-reached order.
struct StateEntry {
  Snapshot state;
  std::shared_ptr<const ChainNode> chain;
};

/// The single-threaded checking engine.  Feed invoke()/response() in
/// simulated-time order; finalize_run() exactly once at the end.
class Core {
 public:
  Core(const ObjectModel& model, const CheckLimits& limits)
      : model_(model), limits_(limits) {
    alist_.push_back(StateEntry{Snapshot::initial(model_), nullptr});
  }

  ~Core() { release_state_set(); }

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Drop every state-set entry, dismantling each witness chain
  /// iteratively (never through the recursive shared_ptr cascade).
  void release_state_set() {
    for (StateEntry& s : alist_) release_chain(std::move(s.chain));
    alist_.clear();
  }

  void invoke(std::int64_t token, ProcessId proc, const Operation& op,
              Tick t) {
    maybe_cut(t);
    open_ix_.emplace(token, window_.size());
    StreamOp rec;
    rec.token = token;
    rec.proc = proc;
    rec.op = op;
    rec.invoke = t;
    window_.push_back(std::move(rec));
    ++in_flight_;
    ++ops_seen_;
    if (window_.size() > max_window_ops_) max_window_ops_ = window_.size();
    bump_resident(0);
  }

  void response(std::int64_t token, const Value& ret, Tick t) {
    auto it = open_ix_.find(token);
    if (it == open_ix_.end()) {
      throw std::logic_error(
          "StreamingChecker: response without a matching in-flight "
          "invocation (token " +
          std::to_string(token) + ")");
    }
    StreamOp& rec = window_[it->second];
    open_ix_.erase(it);
    rec.ret = ret;
    rec.response = t;
    --in_flight_;
    ++completed_seen_;
    if (t > max_response_) max_response_ = t;  // kNoTime is INT64_MIN
  }

  CheckResult finalize_run();

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
  void maybe_cut(Tick t) {
    if (in_flight_ != 0 || window_.empty()) return;
    if (max_response_ >= t) return;
    closed_ops_ += window_.size();
    closed_.push_back(std::move(window_));
    window_.clear();
    open_ix_.clear();  // empty already: nothing was in flight
    max_response_ = kNoTime;
    while (closed_.size() > 1) retire_front();
  }

  void retire_front() {
    std::vector<StreamOp> seg = std::move(closed_.front());
    closed_.pop_front();
    closed_ops_ -= seg.size();
    ++confirmed_cuts_;
    if (!failed_) advance(seg);
  }

  // --- forward state-set threading over a confirmed segment -----------------

  struct VisitedEntry {
    std::vector<std::size_t> frontier;
    Snapshot state;
  };

  /// Scratch for enumerating one confirmed segment from every state-set
  /// entry.  `visited` is the cross-entry memo: a (frontier, state) node is
  /// expanded at most once per segment no matter how many entries re-reach
  /// it (the role the offline dead memo plays), marked pre-order -- safe
  /// because the frontier strictly advances along any path (no cycles) and
  /// a marked node's subtree has always been fully enumerated.
  struct EnumCtx {
    const std::vector<StreamOp>& ops;
    SegIndex ix;
    std::vector<std::size_t> frontier;
    std::vector<std::int64_t> path;
    std::unordered_map<std::uint64_t, std::vector<VisitedEntry>> visited;
    std::size_t visited_count = 0;
    std::vector<StateEntry> next;
    /// fingerprint -> indices into `next`, for final-state dedup.
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> finals;
    const std::shared_ptr<const ChainNode>* base = nullptr;

    explicit EnumCtx(const std::vector<StreamOp>& o) : ops(o) { ix.build(o); }
  };

  static std::optional<std::size_t> seg_front(const EnumCtx& e,
                                              std::size_t p) {
    const std::vector<std::size_t>& idxs = e.ix.per_proc[p];
    const std::size_t k = e.frontier[p];
    if (k >= idxs.size()) return std::nullopt;
    return idxs[k];
  }

  static bool seg_complete(const EnumCtx& e) {
    for (std::size_t p = 0; p < e.ix.per_proc.size(); ++p) {
      if (e.frontier[p] < e.ix.per_proc[p].size()) return false;
    }
    return true;
  }

  /// Same-segment real-time eligibility, the offline search's rule: no
  /// other remaining frontier operation may have responded strictly before
  /// `inv`.  Confirmed segments hold no pending operations (every pending
  /// invocation lives in the final window -- nothing was in flight at any
  /// trigger), so the frontier scan is the whole test.
  static bool seg_eligible_at(const EnumCtx& e, Tick inv,
                              std::optional<std::size_t> self) {
    for (std::size_t p = 0; p < e.ix.per_proc.size(); ++p) {
      auto f = seg_front(e, p);
      if (!f || (self && *f == *self)) continue;
      if (e.ops[*f].response < inv) return false;
    }
    return true;
  }

  std::uint64_t seg_hash(const EnumCtx& e, const Snapshot& state) const {
    std::uint64_t h = kFnvOffset;
    for (std::size_t f : e.frontier) fnv_u64(h, f);
    fnv_u64(h, state.fingerprint());
    return h;
  }

  /// Replace the state set with every distinct final state of `seg`,
  /// enumerating from each current entry in first-reached order.  An empty
  /// successor set is the (final) verdict: no linearization of the prefix
  /// extends through this segment.
  void advance(const std::vector<StreamOp>& seg) {
    EnumCtx e(seg);
    for (const StateEntry& entry : alist_) {
      e.frontier.assign(e.ix.per_proc.size(), 0);
      e.path.clear();
      e.base = &entry.chain;
      Snapshot state = entry.state;
      enum_dfs(e, state);
    }
    ++segments_retired_;
    if (e.next.empty()) {
      failed_ = true;
      release_state_set();
      return;
    }
    std::vector<StateEntry> prev_set = std::move(alist_);
    alist_ = std::move(e.next);
    // Entries that produced no surviving final own their chain suffix
    // exclusively now; dismantle those iteratively (shared prefixes stop
    // the walk immediately).
    for (StateEntry& s : prev_set) release_chain(std::move(s.chain));
    bump_resident(0);
  }

  void enum_dfs(EnumCtx& e, Snapshot& state) {
    if (seg_complete(e)) {
      emit_final(e, state);
      return;
    }
    const std::uint64_t h = seg_hash(e, state);
    auto it = e.visited.find(h);
    if (it != e.visited.end()) {
      for (const VisitedEntry& v : it->second) {
        if (v.frontier == e.frontier && v.state.equals(state)) {
          ++memo_hits_;
          return;
        }
      }
    }
    e.visited[h].push_back(VisitedEntry{e.frontier, state});
    ++e.visited_count;
    bump_resident(e.ops.size() + e.visited_count + e.next.size());
    count_state();

    // Candidate order mirrors the offline search: process fronts in pid
    // order (there are no pending operations in a confirmed segment).
    bool any_candidate = false;
    for (std::size_t p = 0; p < e.ix.per_proc.size(); ++p) {
      auto f = seg_front(e, p);
      if (!f) continue;
      const StreamOp& op = e.ops[*f];
      if (!seg_eligible_at(e, op.invoke, f)) continue;
      any_candidate = true;
      Snapshot next = state;
      const bool accessor = model_.classify(op.op) == OpClass::kPureAccessor;
      const Value determined =
          accessor ? next.apply_accessor(op.op) : next.apply(op.op);
      if (!(determined == op.ret)) {
        record_explanation(mismatch_text(op, state, determined));
        continue;
      }
      ++e.frontier[p];
      e.path.push_back(op.token);
      enum_dfs(e, next);
      e.path.pop_back();
      --e.frontier[p];
    }
    if (!any_candidate) record_explanation(kNoCandidateText);
  }

  void emit_final(EnumCtx& e, const Snapshot& state) {
    std::vector<std::size_t>& bucket = e.finals[state.fingerprint()];
    for (std::size_t j : bucket) {
      if (e.next[j].state.equals(state)) return;  // duplicate final state
    }
    bucket.push_back(e.next.size());
    auto node = std::make_shared<ChainNode>();
    node->prev = *e.base;
    node->path = e.path;
    e.next.push_back(StateEntry{state, std::move(node)});
    bump_resident(e.ops.size() + e.visited_count + e.next.size());
  }

  // --- shared plumbing ------------------------------------------------------

  void count_state() {
    if (++states_ > limits_.max_states) {
      detail::throw_state_budget_exceeded(limits_.max_states, states_,
                                          segments_retired_,
                                          confirmed_cuts_ + 1, ops_seen_);
    }
  }

  void record_explanation(std::string text) {
    if (explanation_.empty() && !text.empty()) explanation_ = std::move(text);
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
        window_.size() + closed_ops_ + alist_.size() + extra;
    if (cur > peak_resident_) peak_resident_ = cur;
  }

  const ObjectModel& model_;
  const CheckLimits limits_;

  // Open window + in-flight tracking.
  std::vector<StreamOp> window_;
  std::unordered_map<std::int64_t, std::size_t> open_ix_;  // in-flight only
  std::size_t in_flight_ = 0;
  Tick max_response_ = kNoTime;  // over responses since the last cut

  // Tentative segments awaiting confirmation (at most one between events).
  std::deque<std::vector<StreamOp>> closed_;
  std::size_t closed_ops_ = 0;

  // Forward state set across everything retired so far.
  std::vector<StateEntry> alist_;

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

CheckResult Core::finalize_run() {
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
  // invocation order because every closed operation was invoked strictly
  // before the trigger and every window operation at or after it.
  if (!closed_.empty()) {
    Tick first_completed = kNoTime;
    Tick first_pending = kNoTime;
    for (const StreamOp& rec : window_) {
      Tick& slot = rec.completed() ? first_completed : first_pending;
      if (slot == kNoTime || rec.invoke < slot) slot = rec.invoke;
    }
    const bool valid =
        first_completed != kNoTime &&
        (first_pending == kNoTime || first_pending >= first_completed);
    std::vector<StreamOp> seg = std::move(closed_.front());
    closed_.pop_front();
    closed_ops_ -= seg.size();
    if (valid) {
      ++confirmed_cuts_;
      if (!failed_) advance(seg);
    } else {
      seg.insert(seg.end(), std::make_move_iterator(window_.begin()),
                 std::make_move_iterator(window_.end()));
      window_ = std::move(seg);
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
    // Stitch the witness: retired-segment paths in order, then the final
    // window's.  Tokens map to history_with_pending indices by rank among
    // the completed tokens (the witness is a permutation of exactly those).
    std::vector<const ChainNode*> chain;
    for (const ChainNode* n = winner->chain.get(); n != nullptr;
         n = n->prev.get()) {
      chain.push_back(n);
    }
    std::vector<std::int64_t> tokens;
    tokens.reserve(completed_seen_);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      tokens.insert(tokens.end(), (*it)->path.begin(), (*it)->path.end());
    }
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

/// One tap event.  Invocations carry the operation; responses the return.
struct Event {
  bool is_invoke = false;
  std::int64_t token = 0;
  ProcessId proc = kNoProcess;
  Operation op;
  Value ret;
  Tick time = kNoTime;
};

/// Bounded single-producer single-consumer ring for the pipelined mode.
/// push() blocks the producer while full -- wall-clock backpressure only;
/// the simulator's event schedule never observes it.  kill() (consumer
/// died) turns push into a drop so a failed checker cannot wedge the run.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity)
      : buf_(std::max<std::size_t>(capacity, 1)) {}

  void push(Event ev) {
    std::unique_lock<std::mutex> lk(m_);
    not_full_.wait(lk, [&] { return size_ < buf_.size() || dead_; });
    if (dead_) return;
    buf_[(head_ + size_) % buf_.size()] = std::move(ev);
    ++size_;
    lk.unlock();
    not_empty_.notify_one();
  }

  /// False once the ring is closed and drained (or killed).
  bool pop(Event& out) {
    std::unique_lock<std::mutex> lk(m_);
    not_empty_.wait(lk, [&] { return size_ > 0 || closed_; });
    if (size_ == 0) return false;
    out = std::move(buf_[head_]);
    head_ = (head_ + 1) % buf_.size();
    --size_;
    lk.unlock();
    not_full_.notify_one();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lk(m_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  void kill() {
    {
      std::lock_guard<std::mutex> lk(m_);
      dead_ = true;
      closed_ = true;
      size_ = 0;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<Event> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool closed_ = false;
  bool dead_ = false;
};

}  // namespace

struct StreamingChecker::Impl {
  Core core;
  const bool pipelined;
  EventRing ring;
  std::thread worker;
  std::exception_ptr error;  // worker -> finalize; join() orders the read
  bool finalized = false;

  Impl(const ObjectModel& model, const CheckOptions& options)
      : core(model, options.limits),
        pipelined(options.jobs > 1),
        ring(options.ring_capacity) {
    if (pipelined) {
      worker = std::thread([this] { drain(); });
    }
  }

  ~Impl() {
    if (worker.joinable()) {
      ring.close();
      worker.join();
    }
  }

  void drain() {
    try {
      Event ev;
      while (ring.pop(ev)) apply(ev);
    } catch (...) {
      error = std::current_exception();
      ring.kill();
    }
  }

  void apply(const Event& ev) {
    if (ev.is_invoke) {
      core.invoke(ev.token, ev.proc, ev.op, ev.time);
    } else {
      core.response(ev.token, ev.ret, ev.time);
    }
  }

  void feed(Event ev) {
    if (!pipelined) {
      apply(ev);
      return;
    }
    ring.push(std::move(ev));
  }

  CheckResult finalize() {
    if (finalized) {
      throw std::logic_error("StreamingChecker::finalize called twice");
    }
    finalized = true;
    if (pipelined) {
      ring.close();
      worker.join();
      if (error) std::rethrow_exception(error);
    }
    return core.finalize_run();
  }
};

StreamingChecker::StreamingChecker(const ObjectModel& model,
                                   const CheckOptions& options)
    : impl_(std::make_unique<Impl>(model, options)) {}

StreamingChecker::~StreamingChecker() = default;

void StreamingChecker::attach(Simulator& sim) {
  Impl* impl = impl_.get();
  auto prev_invoke = sim.invoke_hook();
  auto prev_response = sim.response_hook();
  sim.set_invoke_hook(
      [impl, prev_invoke](const OperationRecord& rec) {
        if (prev_invoke) prev_invoke(rec);
        Event ev;
        ev.is_invoke = true;
        ev.token = rec.token;
        ev.proc = rec.proc;
        ev.op = rec.op;
        ev.time = rec.invoke_time;
        impl->feed(std::move(ev));
      });
  sim.set_response_hook(
      [impl, prev_response](const OperationRecord& rec) {
        if (prev_response) prev_response(rec);
        Event ev;
        ev.token = rec.token;
        ev.ret = rec.ret;
        ev.time = rec.response_time;
        impl->feed(std::move(ev));
      });
}

void StreamingChecker::on_invoke(const OperationRecord& rec) {
  Event ev;
  ev.is_invoke = true;
  ev.token = rec.token;
  ev.proc = rec.proc;
  ev.op = rec.op;
  ev.time = rec.invoke_time;
  impl_->feed(std::move(ev));
}

void StreamingChecker::on_response(const OperationRecord& rec) {
  Event ev;
  ev.token = rec.token;
  ev.ret = rec.ret;
  ev.time = rec.response_time;
  impl_->feed(std::move(ev));
}

CheckResult StreamingChecker::finalize() { return impl_->finalize(); }

std::size_t StreamingChecker::ops_seen() const { return impl_->core.ops_seen(); }
std::size_t StreamingChecker::segments_retired() const {
  return impl_->core.segments_retired();
}
std::size_t StreamingChecker::max_window_ops() const {
  return impl_->core.max_window_ops();
}
std::size_t StreamingChecker::max_resident_states() const {
  return impl_->core.max_resident_states();
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
