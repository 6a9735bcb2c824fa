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
# Each line carries a second, tab-separated column that classifies the
# function by `grep -w` of its unqualified name (the class name for a
# constructor or destructor) over the sources:
#
#   src    a program source (bench/, examples/, perfbench/) or a src/ file
#          outside the function's home names it -- likely inlined there
#   tests  only files under tests/ name it outside its home
#   none   nothing names it outside its home
#
# A function's home is the source pair (.h and .cpp of one stem) of every
# object file that defines it, plus the pair that defines its outermost
# class.  A call from inside the home is not seen, so a `none` or `tests`
# function may still be inlined into a caller in its own file; a common
# name (count, to_string, join) may read `src` through an unrelated use.
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
    shorten | sort -u
}
shorten() {
  sed -e 's/\[abi:cxx11\]//g' \
      -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
      -e 's/, std::allocator<[^<>]*> >/>/g'
}
# "src/<dir>/<stem><TAB><function>" for every function a library defines,
# naming the object file that defines it: nm -A prefixes each symbol with
# "<lib>.a:<stem>.cpp.o:", and a library is built in its src/<dir>.
homes() {
  for lib in "$@"; do
    dir=$(basename "$(dirname "$lib")")
    nm -A --defined-only "$lib" | c++filt |
      awk -v dir="src/$dir" '{
        split($1, where, ":"); stem = where[2]; sub(/\.cpp\.o$/, "", stem)
        if ($2 !~ /^[TW]$/) next
        line = $0; sub(/^[^ ]+ [TW] /, "", line)
        print dir "/" stem "\t" line }'
  done | grep -P '\t([^ (]+ )?linbound::([^ (]|, | >)*\(' | shorten
}

# The tab-separated class column described in the header.
classify() {
  local fn=$1 name outer file stem home template='<[^<>]*>'
  name=${fn%%(*}
  while [[ $name =~ $template ]]; do
    name=${name//"${BASH_REMATCH[0]}"/}
  done
  name=${name##* }
  outer=${name#linbound::}
  if [[ $outer == *::* ]]; then outer=${outer%%::*}; else outer=; fi
  name=${name##*::}
  name=${name#\~}
  home=$(awk -F '\t' -v fn="$fn" '$2 == fn { print $1 }' <<<"$home_table")
  if [[ -n $outer ]]; then
    home+=$'\n'$(grep -rlE "^(class|struct) $outer\b" "$root/src" |
                   sed -e "s|^$root/||" -e 's/\.[ch]p*$//' || true)
  fi
  local class=none
  while IFS= read -r file; do
    file=${file#"$root"/}
    case $file in
      bench/* | examples/* | perfbench/*) class=src; break ;;
      src/*)
        stem=${file%.*}
        if ! grep -qxF "$stem" <<<"$home"; then class=src; break; fi ;;
      tests/*) class=tests ;;
    esac
  done < <(grep -rlwF --include='*.h' --include='*.cpp' -- "$name" \
             "$root/src" "$root/bench" "$root/examples" "$root/perfbench" \
             "$root/tests")
  printf '%s\t%s\n' "$fn" "$class"
}

mapfile -t libs < <(find "$work/repo/src" -name 'liblinbound_*.a' | sort)
bins=()
for name in "${programs[@]}"; do
  bins+=("$(find "$work/repo/bench" "$work/repo/examples" -type f \
              -name "$name" -perm -u+x | head -n 1)")
done
bins+=("$work/perfbench/perfbench" "$work/perfbench/perfbench_traced")

unused=$(comm -23 <(functions "${libs[@]}") <(functions "${bins[@]}"))
home_table=$(homes "${libs[@]}")
while IFS= read -r fn; do
  [[ -n $fn ]] && classify "$fn"
done <<<"$unused"
echo "unused_api: $(echo "$unused" | sed '/^$/d' | wc -l) linbound:: functions" \
     "defined in ${#libs[@]} libraries and kept by none of ${#bins[@]}" \
     "program binaries" >&2
