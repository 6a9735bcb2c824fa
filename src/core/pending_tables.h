// Flat replacements for the node-based pending tables on the replica hot
// path (DESIGN.md section 15).
//
// Every pending table in the op pipeline is keyed by a value that arrives
// in (almost) increasing order: per-process operation timestamps are
// strictly monotonic (ReplicaProcess::next_stamp_clock), the reliable
// link's sequence numbers count up, and the TOB sequencer assigns
// consecutive numbers.  Inserts are therefore appends, lookups binary
// searches over a contiguous sorted range, and removals overwhelmingly
// pop the smallest key -- which a head cursor turns into an increment.
// FlatMap/FlatSet (common/flat_map.h) are those tables; this header adds
// the sequence-number sets of the reliable link.
//
// tests/test_pending_tables.cpp fuzzes every table here against std::map /
// std::set.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/timestamp.h"

namespace linbound {

/// Membership set over sequence numbers delivered mostly in order: a dense
/// frontier (every seq below it is a member) plus a small sorted overflow
/// for out-of-order arrivals.  In-order traffic -- the steady state of a
/// clean run -- only increments the frontier and never allocates.
class SeqSet {
 public:
  /// True when `seq` was not yet a member.
  bool insert(std::int64_t seq) {
    if (seq < frontier_) return false;
    if (seq == frontier_) {
      ++frontier_;
      while (head_ < sparse_.size() && sparse_[head_] == frontier_) {
        ++frontier_;
        ++head_;
      }
      if (head_ == sparse_.size()) {
        sparse_.clear();
        head_ = 0;
      }
      return true;
    }
    auto it = std::lower_bound(
        sparse_.begin() + static_cast<std::ptrdiff_t>(head_), sparse_.end(),
        seq);
    if (it != sparse_.end() && *it == seq) return false;
    sparse_.insert(it, seq);
    return true;
  }

  void clear() {
    frontier_ = 0;
    sparse_.clear();
    head_ = 0;
  }

 private:
  std::int64_t frontier_ = 0;          ///< all seqs < frontier_ are members
  std::vector<std::int64_t> sparse_;   ///< sorted members >= frontier_
  std::size_t head_ = 0;               ///< consumed prefix of sparse_
};

/// The reliable link's receive-side dedup history: per sender and per
/// sender incarnation, the sequence numbers already delivered up the stack.
/// Replaces the seed's map<pid, map<incarnation, set<seq>>> nesting with a
/// pid-indexed vector of (incarnation, SeqSet) pairs; all incarnations are
/// retained because a frame from a sender's previous life can still arrive
/// (and must still deduplicate within that life's sequence space).
class LinkDedup {
 public:
  /// True when (from, incarnation, seq) had not been delivered before.
  bool insert(ProcessId from, Tick incarnation, std::int64_t seq) {
    const auto idx = static_cast<std::size_t>(from);
    if (idx >= senders_.size()) senders_.resize(idx + 1);
    auto& lives = senders_[idx];
    for (auto& life : lives) {
      if (life.incarnation == incarnation) return life.seqs.insert(seq);
    }
    lives.push_back(Life{incarnation, {}});
    return lives.back().seqs.insert(seq);
  }

  void clear() { senders_.clear(); }

 private:
  struct Life {
    Tick incarnation = 0;
    SeqSet seqs;
  };
  std::vector<std::vector<Life>> senders_;  ///< indexed by sender pid
};

}  // namespace linbound
