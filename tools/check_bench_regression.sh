#!/usr/bin/env bash
# Compares a fresh BENCH_kernels.json against the checked-in baseline and fails
# on >threshold regression. Only dimensionless ratio metrics (unit == "x") are
# gated, and each is one kernel's speedup over its own kernels::ref reference,
# so a row moves only when that kernel does: a faster dense GEMM cannot fail a
# compressed kernel's row. They are stable across machines, unlike absolute
# GFLOP/s or bytes/s, which are recorded for the trajectory but not compared.
# tests/tools/check_bench_regression_test.sh checks the verdicts.
#
# Usage: tools/check_bench_regression.sh current.json [baseline.json] [threshold]
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
current="${1:?usage: check_bench_regression.sh current.json [baseline.json] [threshold]}"
baseline="${2:-$root/bench/BENCH_kernels_baseline.json}"
threshold="${3:-0.25}"

python3 - "$current" "$baseline" "$threshold" <<'EOF'
import json, sys

cur_path, base_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])

def load(path):
    """Returns ({key: value} for gated ratio metrics, {key: isa}, {isas seen})."""
    with open(path) as f:
        data = json.load(f)
    metrics, isa_of, isas = {}, {}, set()
    for bench in data.get("benches", []):
        for m in bench.get("metrics", []):
            isa = m.get("isa", "")
            if isa:
                isas.add(isa)
            if m.get("unit") == "x" and m.get("higher_is_better", True):
                key = f'{bench["bench"]}:{m["name"]}'
                metrics[key] = float(m["value"])
                isa_of[key] = isa
    return metrics, isa_of, isas

cur, _, cur_isas = load(cur_path)
base, base_isa, _ = load(base_path)
if not base:
    sys.exit(f"no gated (unit 'x') metrics in baseline {base_path}")

failures, compared, skipped = [], 0, 0
for name, base_v in sorted(base.items()):
    cur_v = cur.get(name)
    if cur_v is None:
        # A baseline metric tagged with a SIMD backend this machine did not
        # measure (e.g. an avx512 row from the baselining host on an AVX2-only
        # runner) is expected to be absent; anything else missing is a failure.
        isa = base_isa.get(name, "")
        if isa and isa not in cur_isas:
            print(f"skip {name}: backend '{isa}' not measured in current run")
            skipped += 1
            continue
        failures.append(f"MISSING  {name} (baseline {base_v:.2f})")
        continue
    compared += 1
    if cur_v < base_v * (1.0 - threshold):
        failures.append(f"REGRESSED {name}: {cur_v:.2f} < {base_v:.2f} * {1-threshold:.2f}")
    else:
        print(f"ok {name}: {cur_v:.2f} (baseline {base_v:.2f})")

if failures:
    print("\n".join(failures))
    sys.exit(f"perf regression gate FAILED ({len(failures)} of {len(base)} metrics)")
print(f"perf gate OK ({compared} ratio metrics within {threshold:.0%} of baseline,"
      f" {skipped} skipped for unavailable backends)")
EOF
