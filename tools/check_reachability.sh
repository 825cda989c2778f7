#!/usr/bin/env bash
# Reachability gate: fails when a dz:: function compiled into the src/ module
# libraries is kept by no shipped executable (the benches, the examples,
# dzip_cli and bench/e2e's dz_e2e). There are no exceptions: code that only a
# test needs lives under tests/.
#
# The build is -O0 with one section per function, linked with --gc-sections:
# nothing is inlined, so a function an executable calls stays in it, and one
# no executable calls is dropped. Tests are not built; a function only a test
# calls is an orphan.
#
# Blind spot: a function defined in a header (inline, a member defined in its
# class, a template) emits no symbol in a translation unit that does not use
# it, so an unused one never reaches nm and this gate cannot see it. To audit
# those, run a copy of this script whose CMAKE_CXX_FLAGS add
# -fkeep-inline-functions (every inline function then gets a symbol). That
# audit lists dozens more orphans, most of them compiler-generated
# constructors or accessors only tests call; it is not part of the gate.
#
# Usage: tools/check_reachability.sh [build-dir]   (default: build-reach)
# bench/e2e is configured into <build-dir>/e2e; its sources are only read.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build-reach}"
jobs="$(nproc 2>/dev/null || echo 2)"

flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
cmake -S "$root" -B "$build" "${flags[@]}" -DDZ_BUILD_TESTS=OFF > /dev/null
cmake --build "$build" -j "$jobs" > /dev/null
cmake -S "$root/bench/e2e" -B "$build/e2e" "${flags[@]}" > /dev/null
cmake --build "$build/e2e" --target dz_e2e -j "$jobs" > /dev/null

# One executable per main source file. A missing one (say bench_microkernels
# without Google Benchmark) would turn everything only it reaches into a false
# orphan, so it is an error instead.
exes=("$build/tools/dzip_cli" "$build/e2e/dz_e2e")
for src in "$root"/bench/bench_*.cc; do
  exes+=("$build/bench/$(basename "$src" .cc)")
done
for src in "$root"/examples/*.cpp; do
  exes+=("$build/examples/$(basename "$src" .cpp)")
done
missing=0
for exe in "${exes[@]}"; do
  if [ ! -x "$exe" ]; then
    echo "MISSING EXECUTABLE: $exe"
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "reachability check FAILED: not every executable was built"
  exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Mangled dz:: text symbols, global, weak and file-local alike.
text_symbols() {
  nm --defined-only "$@" 2> /dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZN?K?2dz/ { print $3 }' | sort -u
}
# Demangled, without parameter lists or ABI tags.
readable() {
  c++filt -p | sed -E 's/\[abi:[a-z0-9]+\]//g' | sort -u
}

archives=("$build"/src/*/libdz_*.a)
text_symbols "${archives[@]}" > "$tmp/defined"
for exe in "${exes[@]}"; do
  text_symbols "$exe"
done | sort -u > "$tmp/kept"
comm -23 "$tmp/defined" "$tmp/kept" | readable > "$tmp/orphans"
readable < "$tmp/defined" > "$tmp/defined_names"
if [ ! -s "$tmp/defined_names" ]; then
  echo "reachability check FAILED: no dz:: functions found in ${archives[*]}"
  exit 1
fi

if [ -s "$tmp/orphans" ]; then
  while IFS= read -r name; do
    echo "ORPHAN: $name (no executable keeps it; delete it, or move it under tests/)"
  done < "$tmp/orphans"
  echo "reachability check FAILED"
  exit 1
fi
echo "reachability check OK (${#exes[@]} executables, $(wc -l < "$tmp/defined_names") dz:: functions)"
