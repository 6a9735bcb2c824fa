#!/usr/bin/env bash
# Schema gate for BENCH_perf.json (tools/check_bench_schema.sh [path]).
#
# Two rules, both born from real drift:
#
#   1. Every "*_speedup" key must carry a "*_speedup_threads" sibling naming
#      the hardware-thread count of the measurement.  A bare speedup of
#      ~1.0 measured on a 1-thread box reads as a regression unless the
#      thread count travels with it (an orphan *_speedup_threads without a
#      base key is tolerated: it only adds context, never misleads).
#   2. The gate keys must be present, so a bench refactor cannot silently
#      drop the numbers CI and the prose-drift policy (see
#      bench/bench_throughput.cpp) depend on.
#
# Pure bash + standard tools; no jq dependency.
set -u

json="${1:-BENCH_perf.json}"
fail=0

if [[ ! -f "$json" ]]; then
  echo "check_bench_schema: $json not found" >&2
  exit 1
fi

keys=$(sed -n 's/^[[:space:]]*"\([^"]*\)":.*/\1/p' "$json")

has_key() {
  grep -q "^[[:space:]]*\"$1\":" "$json"
}

# Rule 1: *_speedup -> *_speedup_threads sibling.
while IFS= read -r key; do
  case "$key" in
    *_speedup)
      if ! has_key "${key}_threads"; then
        echo "FAIL: $key has no ${key}_threads sibling" >&2
        fail=1
      fi
      ;;
  esac
done <<< "$keys"

# Rule 2: gate keys.
gate_keys=(
  throughput_allocs_steady_state
  throughput_pool_high_water
  shard_scaling_speedup
  shard_speedup_gate_enforced
  shard_identity_ok
  # Online (streaming) checker gates: verdict/witness identity with the
  # offline checker, the observation-only tap, and the bounded-memory
  # contract (bench/bench_throughput.cpp --checked).
  streaming_checker_ok
  streaming_checker_identical
  streaming_checker_tap_invisible
  streaming_checker_memory_ok
  streaming_checker_max_resident_states
  streaming_checker_speedup
  streaming_checker_speedup_gate_enforced
  # Offline search core on the adversarial shapes (bench/bench_perf.cpp).
  checker_verdicts_ok
  checker_max_resident_states
)
for key in "${gate_keys[@]}"; do
  if ! has_key "$key"; then
    echo "FAIL: required gate key $key missing" >&2
    fail=1
  fi
done

if [[ "$fail" -ne 0 ]]; then
  echo "check_bench_schema: $json violates the bench schema" >&2
  exit 1
fi
echo "check_bench_schema: $json OK ($(wc -l < "$json") lines)"
