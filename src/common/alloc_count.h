// Process-wide heap-allocation counters for the allocation-free-steady-state
// contract (DESIGN.md section 15).
//
// The companion alloc_count.cpp, compiled with -DCOUNT_ALLOCS into the
// linbound_alloccount static library, replaces the global operator
// new/delete family with counting forwarders to malloc/free.  Binaries that
// link that library (tests/test_alloc_free.cpp, bench_throughput,
// bench_shard) can then snapshot heap_allocs() around a run segment and
// assert -- or report -- that the hot path performed zero allocations.
// Everything else links the normal allocator and pays nothing.
//
// Note for linkers, not humans: the interposing definitions live in the same
// translation unit as these accessors, so calling heap_allocs() is what pulls
// the replacement operators out of the static library.
#pragma once

#include <cstdint>

namespace linbound {

/// True when the binary was built with the counting interposer
/// (-DCOUNT_ALLOCS on linbound_alloccount); callers should skip zero-alloc
/// assertions when false instead of vacuously passing on garbage counters.
bool alloc_counting_enabled();

/// Number of global operator new / new[] calls (all variants) since process
/// start.  Monotonic; 0 forever when the interposer is compiled out.
std::uint64_t heap_allocs();

/// Debug aid: while on, the very next counted allocation dumps a raw
/// backtrace to stderr and exits the process with status 42 -- turning a
/// nonzero steady-state count into a pinpointed call site.  No-op when the
/// interposer is compiled out.
void set_alloc_trap(bool on);

}  // namespace linbound
