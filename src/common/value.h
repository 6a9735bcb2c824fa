// A small dynamically-typed value used for operation arguments and return
// values across all shared-object data types.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "common/small_vec.h"

namespace linbound {

/// Operation arguments and results are drawn from this closed universe:
///  - Unit      (no value; acknowledgements of pure mutators)
///  - Int       (register contents, queue/stack elements, tree keys, ...)
///  - Bool      (membership answers)
///  - Str       (symbolic payloads)
///  - List      (composite results, e.g. RMW returning old state pieces)
///
/// Value is a regular type: copyable, equality-comparable, totally ordered,
/// hashable and printable, so it can live in histories, priority queues and
/// test matchers without friction.
///
/// Representation: scalars (Unit/Int/Bool) live inline in the variant with
/// no heap traffic at all.  Strings and lists are immutable and shared --
/// a string is a handle into the process-wide interning pool (common/
/// intern.h), a list is a shared immutable vector -- so copying any Value
/// is O(1) and string equality is a pointer compare.  The alternative order
/// (Unit, Int, Bool, Str, List) is part of the comparison contract and
/// must not change.
class Value {
 public:
  struct Unit {
    friend bool operator==(const Unit&, const Unit&) { return true; }
    friend auto operator<=>(const Unit&, const Unit&) = default;
  };
  // Inline storage for two elements covers the dominant shapes (pair
  // results, register histories of depth <= 2): building or copying such a
  // list touches the heap only for the shared_ptr control block.  SmallVec
  // is instantiable with the still-incomplete Value because its inline
  // buffer is raw storage.
  using List = SmallVec<Value, 2>;

  Value() : v_(Unit{}) {}
  Value(std::int64_t x) : v_(x) {}        // NOLINT(google-explicit-constructor)
  Value(int x) : v_(std::int64_t{x}) {}   // NOLINT(google-explicit-constructor)
  Value(bool b) : v_(b) {}                // NOLINT(google-explicit-constructor)
  Value(std::string s);                   // NOLINT(google-explicit-constructor)
  Value(const char* s);                   // NOLINT(google-explicit-constructor)
  Value(List xs);                         // NOLINT(google-explicit-constructor)

  static Value unit() { return Value(); }

  bool is_unit() const { return std::holds_alternative<Unit>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_str() const { return std::holds_alternative<StrPtr>(v_); }
  bool is_list() const { return std::holds_alternative<ListPtr>(v_); }

  /// Accessors abort (via std::get) on type mismatch -- a mismatch is a
  /// programming error in a sequential specification, not a runtime
  /// condition to recover from.
  std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  bool as_bool() const { return std::get<bool>(v_); }
  const std::string& as_str() const { return *std::get<StrPtr>(v_); }
  const List& as_list() const { return *std::get<ListPtr>(v_); }

  /// Human-readable rendering, used in traces, test failures and the bench
  /// table output.
  std::string to_string() const;

  /// Parse the to_string() grammar back into a Value:
  ///   () | <int> | true | false | "str" | [v, v, ...]
  /// Strings may not contain '"'.  Returns nullopt on malformed input,
  /// out-of-range integers, lists nested more than 64 deep or trailing
  /// garbage -- the exact inverse of to_string() (round-trip tested,
  /// including INT64_MIN/MAX).
  static std::optional<Value> parse(std::string_view text);

  /// Stable 64-bit fingerprint (FNV-1a over a canonical encoding); used by
  /// the linearizability checker's memoization of object states.  The
  /// encoding is independent of the representation, so fingerprints match
  /// across PRs (trace files record them).
  std::uint64_t hash() const;

  friend bool operator==(const Value& a, const Value& b);

 private:
  using StrPtr = std::shared_ptr<const std::string>;
  using ListPtr = std::shared_ptr<const List>;

  // Same alternative order as the original by-value variant
  // (Unit, Int, Bool, Str, List) so cross-type ordering is unchanged.
  std::variant<Unit, std::int64_t, bool, StrPtr, ListPtr> v_;
};

}  // namespace linbound
