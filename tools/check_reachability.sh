#!/usr/bin/env bash
# Reachability gate: fails when a dz:: function compiled into the src/ module
# libraries is kept by no shipped executable (the benches, the examples,
# dzip_cli and bench/e2e's dz_e2e). There are no exceptions: code that only a
# test needs lives under tests/.
#
# The build is -O0 with one section per function, linked with
# --gc-sections: nothing is inlined, so a function an executable calls stays
# in it, and one no executable calls is dropped. -fkeep-inline-functions
# gives every function defined in a header (inline, or a member defined in
# its class) a symbol in each library object that includes it, so an unused
# one is seen too. Tests are not built; a function only a test calls is an
# orphan.
#
# Compiler-generated members (implicit constructors, destructors and
# assignments) are not orphans: there is no source line to delete. One rule
# tells them apart, read from the DWARF the compiler writes: a symbol is
# compiler-generated when its DW_TAG_subprogram carries DW_AT_artificial,
# either itself or on an entry it reaches through DW_AT_specification or
# DW_AT_abstract_origin. A symbol's subprogram is the one whose DW_AT_low_pc
# is relocated against the symbol's section. That match needs no linkage name,
# so functions with internal linkage (anonymous namespaces) are classified
# too, and the C1/C2 constructor and D1/D2 destructor aliases, which share one
# section, fold into one entry. A user-written function nothing calls, a
# constructor included, is still an orphan. No name is exempt.
#
# Cost: -fkeep-inline-functions, -g and the DWARF read make the gate about
# 1.7x slower than a plain -O0 build of the same targets (about 80 s on 4
# cores without ccache). Only the main build carries the two flags:
# bench/e2e's build compiles its own copy of the libraries only to link
# dz_e2e, and a function an executable calls is emitted without them.
# Executables are linked without debug info, which only the library objects
# need. readelf (binutils) only reads the objects that define a candidate
# orphan.
#
# Blind spot: a function template that nothing instantiates emits no code, so
# it never reaches nm and this gate cannot see it.
#
# Usage: tools/check_reachability.sh [build-dir]   (default: build-reach)
# bench/e2e is configured into <build-dir>/e2e; its sources are only read.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build-reach}"
jobs="$(nproc 2>/dev/null || echo 2)"

sections="-O0 -ffunction-sections -fdata-sections"
flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections -Wl,--strip-debug")
cmake -S "$root" -B "$build" "${flags[@]}" -DDZ_BUILD_TESTS=OFF \
  "-DCMAKE_CXX_FLAGS=$sections -g -fkeep-inline-functions" > /dev/null
cmake --build "$build" -j "$jobs" > /dev/null
cmake -S "$root/bench/e2e" -B "$build/e2e" "${flags[@]}" \
  "-DCMAKE_CXX_FLAGS=$sections" > /dev/null
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

# Reads `readelf -SrsW -wi` of one object (section headers, relocations,
# symbols, then .debug_info, in that order) and prints each symbol listed in
# the file $want that the rule above finds compiler-generated.
classify_awk='
BEGIN { while ((getline s < want) > 0) cand[s] = 1 }
/^Section Headers:/ { part = "sections"; next }
/^Relocation section / { part = "relocs"; rel = index($0, ".rela.debug_info") > 0; next }
/^Symbol table / { part = "symbols"; next }
/^Contents of the .debug_info section/ { part = "dwarf"; next }
part == "sections" {
  if (match($0, /^ *\[ *[0-9]+\] /)) {
    i = substr($0, RSTART, RLENGTH); gsub(/[^0-9]/, "", i)
    split(substr($0, RSTART + RLENGTH), f, " "); index_of[f[1]] = i
  }
  next
}
part == "relocs" {
  if (rel && NF >= 5 && ($5 in index_of)) { o = $1; sub(/^0+/, "", o); sec[o] = index_of[$5] }
  next
}
part == "symbols" {
  if (NF >= 8 && ($8 in cand)) ndx[$8] = $7
  next
}
part != "dwarf" { next }
/^ *<[0-9]+><[0-9a-f]+>:/ {
  die = ""
  if (/DW_TAG_subprogram/) { match($0, /><[0-9a-f]+>/); die = substr($0, RSTART + 2, RLENGTH - 3) }
  next
}
die == "" { next }
/DW_AT_artificial/ { art[die] = 1; next }
/DW_AT_specification|DW_AT_abstract_origin/ { t = $NF; gsub(/[<>]|0x/, "", t); up[die] = t; next }
/DW_AT_low_pc/ {
  match($0, /<[0-9a-f]+>/); a = substr($0, RSTART + 1, RLENGTH - 2)
  if (a in sec) entry[sec[a]] = die
}
END {
  for (s in cand) {
    d = (s in ndx) ? entry[ndx[s]] : ""
    for (hops = 0; d != "" && hops < 8; hops++) {
      if (d in art) { print s; break }
      d = up[d]
    }
  }
}'

archives=("$build"/src/*/libdz_*.a)
text_symbols "${archives[@]}" > "$tmp/defined"
for exe in "${exes[@]}"; do
  text_symbols "$exe"
done | sort -u > "$tmp/kept"
comm -23 "$tmp/defined" "$tmp/kept" > "$tmp/candidates"
readable < "$tmp/defined" > "$tmp/defined_names"
if [ ! -s "$tmp/defined_names" ]; then
  echo "reachability check FAILED: no dz:: functions found in ${archives[*]}"
  exit 1
fi

# Classify each candidate in one archive member that defines it. A candidate
# the rule does not find compiler-generated is an orphan.
: > "$tmp/generated"
if [ -s "$tmp/candidates" ]; then
  nm -A --defined-only "${archives[@]}" 2> /dev/null |
    awk 'NR == FNR { want[$1] = 1; next }
         ($NF in want) && !seen[$NF]++ { n = split($1, p, ":"); print p[n - 2], p[n - 1], $NF }' \
      "$tmp/candidates" - > "$tmp/homes"
  i=0
  while read -r archive member; do
    i=$((i + 1))
    awk -v a="$archive" -v m="$member" '$1 == a && $2 == m { print $3 }' "$tmp/homes" > "$tmp/want.$i"
    ar p "$archive" "$member" > "$tmp/obj.$i.o"
    readelf -SrsW -wi "$tmp/obj.$i.o" 2> /dev/null |
      awk -v want="$tmp/want.$i" "$classify_awk" >> "$tmp/generated"
  done < <(awk '{ print $1, $2 }' "$tmp/homes" | sort -u)
fi
sort -u -o "$tmp/generated" "$tmp/generated"
comm -23 "$tmp/candidates" "$tmp/generated" | readable > "$tmp/orphans"
generated="$(readable < "$tmp/generated" | wc -l)"

if [ -s "$tmp/orphans" ]; then
  while IFS= read -r name; do
    echo "ORPHAN: $name (no executable keeps it; delete it, or move it under tests/)"
  done < "$tmp/orphans"
  echo "reachability check FAILED"
  exit 1
fi
echo "reachability check OK (${#exes[@]} executables, $(wc -l < "$tmp/defined_names") dz:: functions, $generated compiler-generated members unused)"
