#!/usr/bin/env bash
# Self-test of tools/check_bench_regression.sh on synthetic current/baseline
# pairs: a faster row passes, a slower row fails whichever kernel it times, a
# row of a backend the current run did not measure is skipped, and a missing
# row of a measured backend fails.
#
# Usage: tests/tools/check_bench_regression_test.sh <repo_root>
set -u

root="${1:?usage: check_bench_regression_test.sh <repo_root>}"
check="$root/tools/check_bench_regression.sh"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# write <out.json> <name=value@isa>...: a dz-bench-v2 file of fig06 speedup rows.
write() {
  python3 - "$@" <<'PY'
import json, sys
metrics = []
for arg in sys.argv[2:]:
    name, rest = arg.split("=")
    value, isa = rest.split("@")
    metrics.append({"name": name, "value": float(value), "unit": "x",
                    "higher_is_better": True, "isa": isa})
with open(sys.argv[1], "w") as f:
    json.dump({"schema": "dz-bench-v2",
               "benches": [{"bench": "bench_fig06_matmul_perf",
                            "metrics": metrics}]}, f)
PY
}

failures=0
# expect <pass|fail> <case> <name=value@isa>...: gates those current rows
# against the baseline below and compares the verdict.
expect() {
  local want="$1" what="$2" got
  shift 2
  write "$tmp/current.json" "$@"
  if "$check" "$tmp/current.json" "$tmp/baseline.json" > "$tmp/out.txt" 2>&1; then
    got=pass
  else
    got=fail
  fi
  if [ "$got" = "$want" ]; then
    echo "ok: $what ($got)"
  else
    echo "FAIL: $what: expected $want, got $got"
    cat "$tmp/out.txt"
    failures=$((failures + 1))
  fi
}

write "$tmp/baseline.json" \
  dense_nt_m1_avx512_speedup=1.0@avx512 quant4_nt_m1_avx512_speedup=4.0@avx512 \
  dense_nt_m1_avx2_speedup=1.0@avx2 quant4_nt_m1_avx2_speedup=3.0@avx2

expect pass "a 50% faster dense m = 1 row" \
  dense_nt_m1_avx512_speedup=1.5@avx512 quant4_nt_m1_avx512_speedup=4.0@avx512 \
  dense_nt_m1_avx2_speedup=1.0@avx2 quant4_nt_m1_avx2_speedup=3.0@avx2
expect fail "a 30% slower quant4 m = 1 row" \
  dense_nt_m1_avx512_speedup=1.0@avx512 quant4_nt_m1_avx512_speedup=2.8@avx512 \
  dense_nt_m1_avx2_speedup=1.0@avx2 quant4_nt_m1_avx2_speedup=3.0@avx2
expect fail "a 30% slower dense m = 1 row" \
  dense_nt_m1_avx512_speedup=0.7@avx512 quant4_nt_m1_avx512_speedup=4.0@avx512 \
  dense_nt_m1_avx2_speedup=1.0@avx2 quant4_nt_m1_avx2_speedup=3.0@avx2
expect pass "avx512 baseline rows on a run that measured only avx2" \
  dense_nt_m1_avx2_speedup=1.0@avx2 quant4_nt_m1_avx2_speedup=3.0@avx2
if ! grep -q "^skip bench_fig06_matmul_perf:quant4_nt_m1_avx512_speedup" "$tmp/out.txt"; then
  echo "FAIL: the avx512 rows were not reported as skipped"
  cat "$tmp/out.txt"
  failures=$((failures + 1))
fi
expect fail "a missing row of a measured backend" \
  dense_nt_m1_avx512_speedup=1.0@avx512 \
  dense_nt_m1_avx2_speedup=1.0@avx2 quant4_nt_m1_avx2_speedup=3.0@avx2

if [ "$failures" -ne 0 ]; then
  echo "check_bench_regression self-test FAILED ($failures cases)"
  exit 1
fi
echo "check_bench_regression self-test OK"
