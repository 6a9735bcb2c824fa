// Trace serialization: a line-oriented text format for recorded runs, so
// experiments can be archived, diffed and reloaded (round-trip exact).
//
//   trace v1
//   timing <d> <u> <eps>
//   offsets <c0> <c1> ...
//   end <end_time>
//   msg <id> <from> <to> <send> <recv|->
//   op <token> <proc> <code> <invoke> <response|-> <ret> <arg>*
//   fault <kind> <time> <proc> <peer> <msg> <magnitude>
//
// Operation arguments and returns use the Value::to_string grammar; the
// opcode is numeric (data-type specific), so traces are replayable against
// the same ObjectModel.  Fault lines (injected faults, crashes, recoveries;
// kind per fault_kind_name) appear only for runs that had fault events, so
// a clean run's serialization is byte-identical to the pre-fault format.
//
// One formatter writes every serialized byte: write_trace feeds it an
// ostream sink and hash_trace an FNV-1a sink.  It fills a fixed 4 KiB
// buffer, writing integers with std::to_chars -- the digits operator<<
// prints -- so the bytes, and every pinned hash, are those of the original
// stream-based writer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "sim/trace.h"

namespace linbound {

/// Serialize a trace.
void write_trace(std::ostream& os, const Trace& trace);
std::string trace_to_string(const Trace& trace);

/// Parse a serialized trace.  Returns nullopt (and sets `error` if given)
/// on malformed input.
std::optional<Trace> read_trace(std::istream& is, std::string* error = nullptr);
std::optional<Trace> trace_from_string(const std::string& text,
                                       std::string* error = nullptr);

/// FNV-1a (64-bit, unchanged) over write_trace's bytes, streamed through
/// the formatter's buffer (a ~100MB serialized trace is hashed without
/// materializing it).  Byte-identical serializations hash equal -- the
/// determinism oracle of bench_throughput, the chaos engine's pinned
/// trace_hash (src/chaos) and the repro-bundle replay gate all compare
/// this.
std::uint64_t hash_trace(const Trace& trace);

/// Do `a` and `b` agree on every field write_trace serializes -- timing,
/// clock offsets, end time, messages, operations and fault events?  Equal
/// fields imply equal serializations, so this is at least as strict as
/// comparing hash_trace values.  The chaos engine's determinism replay
/// compares this against the first run's trace instead of formatting and
/// hashing the replay again.  Unserialized fields (stats, give-up marks)
/// are not compared.
bool same_trace(const Trace& a, const Trace& b);

}  // namespace linbound
