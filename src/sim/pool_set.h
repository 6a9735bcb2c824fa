// Per-run pool sizing, applied in one shot (DESIGN.md section 15).
//
// The steady-state op pipeline is allocation-free only if every pool it
// draws from was sized for the whole run before the first event: trace
// staging (operation/message records), the future-event list (its one
// slot pool; the hint also picks its calendar window), the payload arena
// (which grows monotonically, so warm-up alone cannot protect it), and the
// per-process timer slot tables.  A PoolSet bundles those sizes -- all
// derivable from an open-loop arrival schedule -- and arm() applies them
// to one Simulator.  The sharded runtime builds one PoolSet per
// shard-worker from its shard's slice of the schedule; workload
// generators (core/workload.h) build one from their size hints.
//
// Every reservation is a capacity-only hint: behavior and traces are
// byte-identical with or without it.
#pragma once

#include <cstddef>

#include "sim/simulator.h"

namespace linbound {

struct PoolSet {
  std::size_t ops = 0;        ///< operation records for the whole run
  std::size_t messages = 0;   ///< message records for the whole run
  std::size_t events = 0;     ///< peak simultaneously pending queue events
  /// Whole-run payload volume for the arena's spare-chunk pool; 0 skips
  /// the arena (its chunks then allocate on demand, as before).
  std::size_t payload_bytes = 0;
  /// Per-process timer slot pool; 0 leaves the tables to demand growth.
  std::size_t timer_slots = 0;

  void arm(Simulator& sim) const {
    sim.reserve(ops, messages, events);
    if (payload_bytes > 0) sim.arena().reserve_bytes(payload_bytes);
    if (timer_slots > 0) sim.reserve_timer_slots(timer_slots);
  }
};

}  // namespace linbound
