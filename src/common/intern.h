// A process-wide interning pool for payload strings.
//
// Operation arguments repeat heavily: a sweep replays the same symbolic
// payloads ("a", "b", ...) across thousands of runs, and the checker copies
// them on every branch.  Interning collapses every occurrence of a string
// into one shared immutable allocation, which makes Value copies refcount
// bumps and makes string equality a pointer compare on the hot path.
//
// The pool is guarded by a mutex: it is the only mutable state shared
// between the worker threads of a parallel sweep (everything else is built
// per run from seed-derived values), and interning happens only when a new
// std::string enters the system -- never on copy, compare or hash.
#pragma once

#include <memory>
#include <string>

namespace linbound {

/// Return the pooled handle for `s`, inserting it on first sight.  Equal
/// strings always yield the same pointer, so pointer equality implies (and
/// with interning as the only producer, coincides with) string equality.
std::shared_ptr<const std::string> intern_string(std::string s);

}  // namespace linbound
