// Copy-on-write handles over object states.
//
// The linearizability checker branches on every candidate next-operation and
// used to deep-clone() the object state per branch; replicas likewise clone
// for join snapshots.  A Snapshot makes those copies O(1): it is a value
// type wrapping a shared immutable-unless-unique ObjectState.  Copying a
// Snapshot bumps a refcount; apply() clones the underlying state first only
// if the handle shares it ("mutate on unique"), so a chain of applies on an
// unshared handle mutates in place with zero copies.
//
// Determinism: Snapshots are confined to one thread (each checker instance
// and each simulated run owns its own), so use_count() is an exact sharing
// test, not a race.
#pragma once

#include <memory>
#include <string>

#include "spec/object_model.h"

namespace linbound {

class Snapshot {
 public:
  /// An empty handle; valid() is false and every other member is UB.
  Snapshot() = default;

  /// Take ownership of a freshly built state (no copy).
  explicit Snapshot(std::unique_ptr<ObjectState> state)
      : state_(std::move(state)) {}

  /// The model's initial state, wrapped.
  static Snapshot initial(const ObjectModel& model) {
    return Snapshot(model.initial_state());
  }

  bool valid() const { return state_ != nullptr; }

  /// Read-only view of the underlying state.
  const ObjectState& get() const { return *state_; }

  std::uint64_t fingerprint() const { return state_->fingerprint(); }
  bool equals(const Snapshot& other) const {
    return state_ == other.state_ || state_->equals(*other.state_);
  }
  std::string to_string() const { return state_->to_string(); }

  /// Apply with mutate-on-unique semantics: if any other Snapshot shares
  /// the state, clone first so they never observe the mutation.
  Value apply(const Operation& op) {
    if (state_.use_count() > 1) state_ = state_->clone();
    return state_->apply(op);
  }

  /// Apply an operation the caller guarantees is a pure accessor (never
  /// mutates), skipping the copy-on-write clone even when shared and
  /// keeping the cached fingerprint (ObjectState::apply_accessor, which
  /// verifies the guarantee in debug builds).
  Value apply_accessor(const Operation& op) {
    return state_->apply_accessor(op);
  }

  /// A detached deep copy as a plain state (for callers that need to own
  /// a mutable ObjectState outright).
  std::unique_ptr<ObjectState> to_state() const { return state_->clone(); }

 private:
  std::shared_ptr<ObjectState> state_;
};

}  // namespace linbound
