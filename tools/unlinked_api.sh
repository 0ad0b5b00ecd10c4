#!/usr/bin/env bash
# Lists the auditherm:: functions in src/ that no production binary links.
#
# The production binaries are the auditherm CLI, every bench_* program, the
# four examples and perfbench. They are built at -O0 (nothing is inlined)
# with one section per function and linker garbage collection, so a library
# function that no binary contains has no production caller.
#
# Prints the unlinked functions, demangled, one per line, and checks them
# against tools/unlinked_api.keep. Exits 1 on a name that the keep list does
# not hold, and on a keep-list entry that the scan no longer reports.
#
# Usage: tools/unlinked_api.sh    (builds into build-unlinked/)
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/build-unlinked"
keep="$root/tools/unlinked_api.keep"
flags=(
  -DCMAKE_BUILD_TYPE=Debug
  -DCMAKE_CXX_FLAGS_DEBUG=-O0
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
)
benches=$(cd "$root/bench" && ls bench_*.cpp | sed 's/\.cpp$//')
examples="quickstart comfort_monitor hvac_control sensor_placement"

cmake -S "$root" -B "$build" "${flags[@]}" >/dev/null
# shellcheck disable=SC2086
cmake --build "$build" -j "$(nproc)" \
  --target auditherm_cli $benches $examples >/dev/null
cmake -S "$root/perfbench" -B "$build/perfbench" "${flags[@]}" >/dev/null
cmake --build "$build/perfbench" -j "$(nproc)" --target perfbench >/dev/null

binaries=("$build/tools/auditherm" "$build/perfbench/perfbench")
for b in $benches; do binaries+=("$build/bench/$b"); done
for e in $examples; do binaries+=("$build/examples/$e"); done

libs=$(find "$build" -path "$build/perfbench" -prune -o \
  -name 'libauditherm_*.a' -print | sort)
# shellcheck disable=SC2086
nm --defined-only $libs 2>/dev/null |
  awk '$2 ~ /^[TtW]$/ { print $3 }' | sort -u >"$build/lib_symbols.txt"
nm --defined-only "${binaries[@]}" |
  awk 'NF >= 3 { print $3 }' | sort -u >"$build/bin_symbols.txt"
# A lambda's body is listed under its enclosing function, so it is dropped.
comm -23 "$build/lib_symbols.txt" "$build/bin_symbols.txt" | c++filt |
  grep '^auditherm::' | grep -v '{lambda' | sort -u \
  >"$build/unlinked_api.txt" || true

# Keep-list lines are "<demangled name>  # <reason>"; '#' lines are comments.
{ grep -v -e '^#' -e '^[[:space:]]*$' "$keep" || true; } |
  sed 's/  # .*$//' | sort -u >"$build/keep_names.txt"

echo "unlinked auditherm:: functions ($(wc -l <"$build/unlinked_api.txt")):"
sed 's/^/  /' "$build/unlinked_api.txt"

status=0
unlisted=$(comm -23 "$build/unlinked_api.txt" "$build/keep_names.txt")
stale=$(comm -13 "$build/unlinked_api.txt" "$build/keep_names.txt")
if [[ -n "$unlisted" ]]; then
  echo "error: unlinked and not in tools/unlinked_api.keep:"
  sed 's/^/  /' <<<"$unlisted"
  status=1
fi
if [[ -n "$stale" ]]; then
  echo "error: in tools/unlinked_api.keep but no longer unlinked:"
  sed 's/^/  /' <<<"$stale"
  status=1
fi
exit "$status"
