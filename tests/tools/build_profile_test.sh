#!/usr/bin/env bash
# Self-test of tools/build_profile.sh on a checked-in .ninja_log
# (tests/tools/build_profile.ninja_log): steps slowest first, an output's
# latest line wins over an earlier build's, the two outputs of one step count
# once in the total, and a path with no log is a usage error.
#
# Usage: tests/tools/build_profile_test.sh <repo_root>
set -u

root="${1:?usage: build_profile_test.sh <repo_root>}"
tool="$root/tools/build_profile.sh"
fixture="$root/tests/tools/build_profile.ninja_log"

want='   seconds  step output
     13.10  tests/CMakeFiles/parse_test.dir/util/parse_test.cc.o
      9.50  src/tensor/CMakeFiles/dz_tensor.dir/kernels_avx512.cc.o
      3.98  bench/CMakeFiles/bench_figures.dir/bench_figures.cc.o
      2.00  src/tensor/CMakeFiles/dz_tensor.dir/matrix.cc.o
      1.00  tests/parse_test
      0.30  src/tensor/libdz_tensor.a
      0.24  gen/a.h
      0.24  gen/b.h

   seconds  area
     30.12  total, 7 steps
     13.10  compile tests
     11.50  compile src
      3.98  compile bench
      1.54  link/other'

failures=0
got=$("$tool" "$fixture")
if [ "$got" != "$want" ]; then
  echo "FAIL: build_profile.sh output differs"
  diff <(printf '%s\n' "$want") <(printf '%s\n' "$got")
  failures=$((failures + 1))
fi
# A build directory names its .ninja_log.
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cp "$fixture" "$dir/.ninja_log"
if [ "$("$tool" "$dir")" != "$want" ]; then
  echo "FAIL: a build directory did not read its .ninja_log"
  failures=$((failures + 1))
fi
if "$tool" "$dir/missing" > /dev/null 2>&1; then
  echo "FAIL: a path with no .ninja_log did not exit nonzero"
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "build_profile self-test FAILED ($failures cases)"
  exit 1
fi
echo "build_profile self-test OK"
