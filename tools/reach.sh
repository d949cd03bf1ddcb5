#!/usr/bin/env bash
# Which library functions does a program reach? Builds the library, every
# program (each executable under tools/, bench/ and examples/) and the
# perfbench driver in build-reach/, at -O0 with inlining off and one section
# per function, and links each program with --gc-sections, so a function a
# program can call keeps its symbol there and one it cannot call is dropped.
# It then compares the ivnet:: functions libivnet.a defines with the union
# of those the programs keep ([clone ...] parts folded into their function).
#
# A function no program reaches runs only in tests. It must be listed, with
# its reason, in tools/reach_allowlist.txt. The check fails on an unreached
# function missing from the list, and on a listed function that a program
# reaches or that the library no longer defines. Functions only the
# perfbench driver reaches are reported, not failed.
#
# Usage: tools/reach.sh   (JOBS parallel build jobs, default nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
DIR=build-reach
ALLOWLIST=tools/reach_allowlist.txt
# -fno-inline also holds in the units that add -O3 per source, so their
# unit-local calls keep their symbols too.
FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections"

CONFIG=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="$FLAGS"
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
cmake -B "$DIR" -S . "${CONFIG[@]}" > /dev/null
cmake --build "$DIR" -j "$JOBS" > /dev/null
# perfbench/CMakeLists.txt builds its own copy of the library from src/.
cmake -B "$DIR/perfbench" -S perfbench "${CONFIG[@]}" > /dev/null
cmake --build "$DIR/perfbench" -j "$JOBS" > /dev/null

# The ivnet:: functions (by mangled prefix, so std:: templates instantiated
# over ivnet types stay out) the given objects define, demangled, one a line.
functions() {
  nm --defined-only "$@" | awk '$2 ~ /^[TtWw]$/ {print $3}' |
      grep -E '^_ZZ?N[rVK]*[RO]?5ivnet' | c++filt |
      sed 's/ \[clone [^]]*\]//g' | LC_ALL=C sort -u
}

OUT="$DIR/reach"
mkdir -p "$OUT"
functions "$DIR/src/libivnet.a" > "$OUT/library.txt"
mapfile -t programs < <(find "$DIR/tools" "$DIR/bench" "$DIR/examples" \
    -maxdepth 1 -type f -executable | LC_ALL=C sort)
functions "${programs[@]}" > "$OUT/programs.txt"
functions "$DIR/perfbench/perfbench_driver" > "$OUT/perfbench.txt"
LC_ALL=C sort -u "$OUT/programs.txt" "$OUT/perfbench.txt" > "$OUT/reached.txt"
LC_ALL=C comm -23 "$OUT/library.txt" "$OUT/reached.txt" > "$OUT/unreached.txt"
LC_ALL=C comm -12 "$OUT/library.txt" "$OUT/perfbench.txt" |
    LC_ALL=C comm -23 - "$OUT/programs.txt" > "$OUT/perfbench_only.txt"
# Allowlist lines are "<symbol>  # <reason>"; blank and '#' lines are notes.
grep -v -e '^#' -e '^$' "$ALLOWLIST" | sed 's/  # .*$//' | LC_ALL=C sort -u \
    > "$OUT/allowed.txt"

echo "reach: ${#programs[@]} programs and the perfbench driver;" \
    "$(wc -l < "$OUT/library.txt") library functions," \
    "$(wc -l < "$OUT/unreached.txt") reached by no program," \
    "$(wc -l < "$OUT/perfbench_only.txt") by the perfbench driver alone"
sed 's/^/reach: perfbench only: /' "$OUT/perfbench_only.txt"
status=0
report() {
  if [[ -s "$2" ]]; then
    awk -v prefix="reach: $1: " '{print prefix $0}' "$2" >&2
    status=1
  fi
}
LC_ALL=C comm -23 "$OUT/unreached.txt" "$OUT/allowed.txt" > "$OUT/unlisted.txt"
report "reached by no program and not in $ALLOWLIST" "$OUT/unlisted.txt"
LC_ALL=C comm -12 "$OUT/allowed.txt" "$OUT/reached.txt" > "$OUT/listed_reached.txt"
report "listed in $ALLOWLIST but reached by a program" "$OUT/listed_reached.txt"
LC_ALL=C comm -23 "$OUT/allowed.txt" "$OUT/library.txt" > "$OUT/listed_gone.txt"
report "listed in $ALLOWLIST but no longer defined" "$OUT/listed_gone.txt"
exit "$status"
