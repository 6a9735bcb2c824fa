#!/usr/bin/env bash
# Unused-API audit (tools/unused_api.sh [work-dir]).
#
# Builds every program of the repository -- each bench, each example and
# the perfbench harness -- with -ffunction-sections -fdata-sections and
# -Wl,--gc-sections, then prints the linbound:: functions that src/'s
# static libraries define but no program binary keeps, one per line.
#
#   * An out-of-line function listed here has no caller in any program.
#   * An inline function may be listed because every caller inlined it;
#     grep decides for those.
#   * Tests are not programs here: a function only tests call is listed.
#
# Needs CMake, a C++ toolchain, nm and c++filt; no network.  work-dir
# defaults to build-unused-api/ at the repository root (git-ignored as
# build-*/).  JOBS sets the build parallelism (default 2).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$root/build-unused-api}
jobs=${JOBS:-2}
flags=(-DCMAKE_BUILD_TYPE=Release
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Program targets are named after their source files.
programs=()
for src in "$root"/bench/*.cpp "$root"/examples/*.cpp; do
  programs+=("$(basename "$src" .cpp)")
done
cmake -S "$root" -B "$work/repo" "${flags[@]}" >/dev/null
cmake --build "$work/repo" -j "$jobs" --target "${programs[@]}" >/dev/null
cmake -S "$root/perfbench" -B "$work/perfbench" "${flags[@]}" >/dev/null
cmake --build "$work/perfbench" -j "$jobs" \
  --target perfbench perfbench_traced >/dev/null

# Global text symbols (strong or weak) the files define, demangled, whose
# qualified name starts in namespace linbound (so std:: instantiations
# over linbound types stay out), with the standard library's long
# spellings shortened.
functions() {
  nm --defined-only "$@" | c++filt |
    awk '$2 ~ /^[TW]$/ { sub(/^[^ ]+ [TW] /, ""); print }' |
    grep -E '^([^ (]+ )?linbound::([^ (]|, | >)*\(' |
    sed -e 's/\[abi:cxx11\]//g' \
        -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
        -e 's/, std::allocator<[^<>]*> >/>/g' |
    sort -u
}

mapfile -t libs < <(find "$work/repo/src" -name 'liblinbound_*.a' | sort)
bins=()
for name in "${programs[@]}"; do
  bins+=("$(find "$work/repo/bench" "$work/repo/examples" -type f \
              -name "$name" -perm -u+x | head -n 1)")
done
bins+=("$work/perfbench/perfbench" "$work/perfbench/perfbench_traced")

unused=$(comm -23 <(functions "${libs[@]}") <(functions "${bins[@]}"))
echo "$unused" | sed '/^$/d'
echo "unused_api: $(echo "$unused" | sed '/^$/d' | wc -l) linbound:: functions" \
     "defined in ${#libs[@]} libraries and kept by none of ${#bins[@]}" \
     "program binaries" >&2
