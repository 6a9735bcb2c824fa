// Sequential specifications of deterministic shared objects.
//
// A data type is an ObjectModel (stateless description: name, opcodes,
// classification) plus an ObjectState (a mutable value of the type that can
// apply operations).  States are deterministic (Definition A.1): the return
// value of any operation in any state is a function of the state, so
// legality of an instance sequence is decided by replaying it.
//
// Equivalence note.  The paper defines "rho1 looks like rho2" by quantifying
// over all continuations (Definition C.1).  Every type in this library is
// *state-based*: legality of a continuation depends only on the object state
// it starts in.  Hence two legal sequences are equivalent iff they drive the
// object to equal states, and ObjectState::equals is the executable
// equivalence.  sequences.h also provides a bounded-depth probe check so
// tests can confirm agreement between the two notions on the paper's
// examples.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/value.h"
#include "spec/op_class.h"
#include "spec/operation.h"

namespace linbound {

class Snapshot;

/// A value of the data type.  Concrete states live in src/types and
/// implement the protected do_apply / compute_fingerprint hooks; the public
/// apply / fingerprint wrappers maintain a fingerprint cache so repeated
/// memo-table lookups never re-hash an unchanged state.
class ObjectState {
 public:
  virtual ~ObjectState() = default;

  /// Deep copy.  The fingerprint cache travels with the copy.
  virtual std::unique_ptr<ObjectState> clone() const = 0;

  /// Apply an operation: mutate the state and return the *determined*
  /// return value (Definition A.1).  Total: every operation has a defined
  /// return in every state (e.g. dequeue on an empty queue returns the
  /// "empty" unit value).  Invalidates the cached fingerprint.
  Value apply(const Operation& op) {
    fp_.reset();
    return do_apply(op);
  }

  /// Apply an operation the caller guarantees is a pure accessor (never
  /// mutates): the cached fingerprint stays valid, so the next memo lookup
  /// does not re-hash the state.  Debug builds re-hash before and after to
  /// verify the guarantee.
  Value apply_accessor(const Operation& op);

  /// Structural equality of abstract states (used as sequence equivalence;
  /// see the header comment).
  virtual bool equals(const ObjectState& other) const = 0;

  /// Stable 64-bit fingerprint consistent with equals(); used by the
  /// linearizability checker's memo table.  Computed on first use and
  /// cached until the next apply().
  std::uint64_t fingerprint() const {
    if (!fp_) fp_ = compute_fingerprint();
    return *fp_;
  }

  virtual std::string to_string() const = 0;

  /// A cheap copy-on-write handle over a copy of this state (spec/
  /// snapshot.h); subsequent mutations of *this never show through it.
  Snapshot snapshot() const;

 protected:
  ObjectState() = default;
  ObjectState(const ObjectState&) = default;
  ObjectState& operator=(const ObjectState&) = default;

  /// The type-specific transition function.  Called only through apply().
  virtual Value do_apply(const Operation& op) = 0;

  /// The type-specific fingerprint.  Called only through fingerprint(),
  /// at most once per mutation.
  virtual std::uint64_t compute_fingerprint() const = 0;

 private:
  mutable std::optional<std::uint64_t> fp_;
};

/// Stateless description of a data type.
class ObjectModel {
 public:
  virtual ~ObjectModel() = default;

  virtual std::string name() const = 0;

  /// A fresh state holding the type's initial value.
  virtual std::unique_ptr<ObjectState> initial_state() const = 0;

  /// Chapter V grouping of each operation (MOP / AOP / OOP).
  virtual OpClass classify(const Operation& op) const = 0;

  /// Human-readable opcode name, e.g. "write".
  virtual std::string op_name(OpCode code) const = 0;

  /// "write(5)" -- rendering for traces, tables, and test output.
  std::string describe(const Operation& op) const;

  /// "write(5) -> ()" -- rendering of a full instance.
  std::string describe(const OpInstance& inst) const;
};

}  // namespace linbound
