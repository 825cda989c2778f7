#!/usr/bin/env bash
# Runs the kernel-layer perf benches with --json and merges their outputs into
# one trajectory file (default BENCH_kernels.json in the repo root). This is
# the entry point the CI perf-smoke step uses; run it locally to refresh the
# checked-in baseline (bench/BENCH_kernels_baseline.json). The gated rows are
# fig06's `<kernel>_m<m>_<isa>_speedup`: one kernel timed against its own
# kernels::ref reference at m = 1 and two larger m, per SIMD backend.
#
# Usage: tools/bench_json.sh [build_dir] [out.json]
# Also writes fig06's stdout to out.fig06.txt (out.json minus ".json").
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
out="${2:-$root/BENCH_kernels.json}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Force a single-threaded pool: every gated row is one kernel's speedup over
# its own serial kernels::ref reference, so it must measure kernel quality, not
# how many cores this host happens to have (a multi-thread pool would inflate,
# and core-count-skew, every ratio vs the checked-in baseline).
export DZ_THREADS=1

fig06="$build/bench/bench_fig06_matmul_perf"
micro="$build/bench/bench_microkernels"

[ -x "$fig06" ] || { echo "missing $fig06 (build the bench targets first)"; exit 1; }

# fig06's printed tables go beside the JSON, so a failed decode-shape exit
# (dense vs compressed at m = 1) leaves its numbers behind, not just the FAIL.
"$fig06" --quick --json "$tmp/fig06.json" > "${out%.json}.fig06.txt"

micro_json=""
if [ -x "$micro" ]; then
  "$micro" --quick --json "$tmp/micro.json" > /dev/null
  micro_json="$tmp/micro.json"
else
  echo "note: bench_microkernels not built (Google Benchmark missing); merging fig06 only"
fi

python3 - "$out" "$tmp/fig06.json" ${micro_json:+"$micro_json"} <<'EOF'
import json, sys

out_path = sys.argv[1]
benches = []
for path in sys.argv[2:]:
    with open(path) as f:
        data = json.load(f)
    if "metrics" in data:  # BenchJson v2 schema: isa/threads already top-level
        benches.append(data)
    elif "benchmarks" in data:  # Google Benchmark schema -> normalize
        metrics = []
        for b in data["benchmarks"]:
            for key, unit in (("items_per_second", "items/s"),
                              ("bytes_per_second", "B/s")):
                if key in b:
                    metrics.append({"name": b["name"], "value": b[key],
                                    "unit": unit, "higher_is_better": True})
            if "us_per_call" in b:  # BM_ForkJoin: a latency, recorded ungated
                metrics.append({"name": b["name"], "value": b["us_per_call"],
                                "unit": "us", "higher_is_better": False})
        # AddCustomContext entries land in "context" as strings.
        ctx = data.get("context", {})
        bench = {"bench": "bench_microkernels", "metrics": metrics}
        if "isa" in ctx:
            bench["isa"] = ctx["isa"]
        if "threads" in ctx:
            try:
                bench["threads"] = int(ctx["threads"])
            except ValueError:
                pass
        benches.append(bench)
with open(out_path, "w") as f:
    json.dump({"schema": "dz-bench-v2", "benches": benches}, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({sum(len(b['metrics']) for b in benches)} metrics)")
EOF
