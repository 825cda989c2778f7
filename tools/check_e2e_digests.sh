#!/usr/bin/env bash
# Runs dz_e2e --digest for every line of tools/e2e_digests.txt, once with
# DZ_THREADS=1 and once with DZ_THREADS=2, and fails when a digest differs:
# serving reports (records, metrics, makespan) and the tokens the
# real-arithmetic delta-zoo path generates must stay bit-identical across
# refactors and speedups of the simulator and the kernels, and across thread
# counts. A line runs at smoke size (--smoke) unless its optional fourth
# column says full. A smoke serve-* run takes well under a second, a
# delta-zoo run about 2 s, a full serve-swap run (two seeds) about 1.5 s, a
# full serve-elastic run (two seeds) about 1.3 s, a full serve-burst run
# about 4 s: the whole check, 34 runs, about 22 s on a 4-core x86 box.
# Usage: tools/check_e2e_digests.sh [path/to/dz_e2e]
#   (default: ${CARGO_TARGET_DIR:-.bench_build}/e2e/dz_e2e, where
#   bench/e2e/run.py builds it)
set -u

bin="${1:-${CARGO_TARGET_DIR:-.bench_build}/e2e/dz_e2e}"
digests="$(dirname "$0")/e2e_digests.txt"
if [ ! -x "$bin" ]; then
  echo "usage: tools/check_e2e_digests.sh [path/to/dz_e2e] (no executable at $bin)" >&2
  exit 1
fi

fail=0
runs=0
while read -r workload seed want size; do
  case "$workload" in
    ""|"#"*) continue ;;
  esac
  case "${size:-smoke}" in
    smoke) size_flag=--smoke ;;
    full) size_flag= ;;
    *)
      echo "bad size '$size' for $workload seed $seed (smoke or full)"
      fail=1
      continue
      ;;
  esac
  for threads in 1 2; do
    got=$(DZ_THREADS=$threads "$bin" --workload "$workload" --seed "$seed" --seconds 1 \
            --trace 0 $size_flag --digest < /dev/null 2>/dev/null |
          awk '$1 == "digest" { print $2 }')
    runs=$((runs + 1))
    if [ "$got" != "$want" ]; then
      echo "DIGEST MISMATCH: $workload seed $seed ${size:-smoke} DZ_THREADS=$threads:" \
           "got '${got}', want $want"
      fail=1
    fi
  done
done < "$digests"

if [ "$fail" -ne 0 ] || [ "$runs" -eq 0 ]; then
  echo "e2e digest check FAILED"
  exit 1
fi
echo "e2e digest check OK ($runs runs, DZ_THREADS 1 and 2, match tools/e2e_digests.txt)"
