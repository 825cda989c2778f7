#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench/e2e/README.md).

One workload, as BENCHMARK.json's command runs it from the repository root:

    python3 bench/e2e/run.py --workload serve-burst --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced pass. Every workload, each in its own
process, with a table of all metrics:

    python3 bench/e2e/run.py [--seed N] [--trace 0|1] [--smoke] [--out-dir D]

The exit code is 1 when a correctness check fails or the build does not work.
dz_e2e is built under $CARGO_TARGET_DIR (default .bench_build) in the
current directory and runs with DZ_THREADS=2.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ["serve-burst", "serve-elastic", "serve-swap", "delta-zoo"]
THREADS = "2"  # one process, two pool threads: measure the program, not the scheduler
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # per workload, both passes of a traced run included


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_cmd(cmd, timeout, env=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    return proc.returncode, out, err


def build():
    """Configures and builds dz_e2e; returns its path, or None on failure."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "e2e"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "dz_e2e", "-j", "2"])
    for step in steps:
        code, out, err = run_cmd(step, BUILD_TIMEOUT_S)
        if code != 0:
            log(f"build step failed ({'timeout' if code is None else code}): {' '.join(step)}")
            sys.stderr.write((out + err)[-4000:])
            return None
    return build_dir / "dz_e2e"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(binary, spec, workload, seed, seconds, trace, smoke, trace_out=None):
    """Runs one workload; returns (result dict or None, stderr report)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = dict(os.environ, DZ_THREADS=THREADS)
    base = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        base.append("--smoke")
    cmd = base + ["--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    code, out, err = run_cmd(cmd, RUN_TIMEOUT_S, env)
    lines = out.strip().splitlines()
    if code is None or code not in (0, 1) or not lines:
        log(f"{workload}: dz_e2e {'timed out' if code is None else f'exited {code}'}")
        return None, err
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON: {lines[-1][:200]}")
        return None, err
    problems = validate(result, spec["per_layer" if trace else "end_to_end"])
    if trace:
        # Simulated outputs and artifacts must not depend on the thread count:
        # the traced pass (2 threads) and one plain pass on 1 thread must agree.
        digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
        one = run_cmd(base + ["--trace", "0", "--digest"],
                      max(1.0, deadline - time.monotonic()), dict(env, DZ_THREADS="1"))
        one_digest = (one[1] or "").split()
        if one[0] != 0 or len(one_digest) != 2 or one_digest[1] != digest:
            problems.append(f"outputs differ between DZ_THREADS=1 and {THREADS} "
                            f"({one_digest[1:] or 'no digest'} vs {digest})")
        else:
            err += f"   DZ_THREADS=1 and {THREADS} outputs are bit-identical (digest {digest})\n"
    for p in problems:
        err += f"   CHECK FAILED: {p}\n"
    if problems:
        result["correct"] = False
    return result, err


def validate(result, declared):
    """Checks the result's shape against BENCHMARK.json; returns problems."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return problems
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        problems.append(f"metrics {sorted(set(metrics) ^ set(names))} "
                        "differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
    if result["attempted"] < 1:
        problems.append("attempted < 1")
    return problems


def save(out_dir, workload, seed, trace, result):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "trace": trace, "result": result}, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured-phase budget (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: run every check, verify every metric is reported")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="also save each result as <workload>-seed<N>-trace<T>.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        spec = load_spec()
    except (OSError, json.JSONDecodeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not seconds > 0:
        parser.error("--seconds must be positive")
    binary = build()
    if binary is None:
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    trace_dir = binary.parent / "traces"
    ok = True
    rows = []
    last = None
    for workload in workloads:
        trace_out = None
        if args.trace:
            trace_dir.mkdir(exist_ok=True)
            trace_out = trace_dir / f"{workload}-seed{args.seed}.json"
        result, report = run_workload(binary, spec, workload, args.seed, seconds, args.trace,
                                      args.smoke, trace_out)
        sys.stderr.write(report)
        if result is None:
            return 1
        ok = ok and result["correct"]
        if args.out_dir:
            save(args.out_dir, workload, args.seed, args.trace, result)
        for name, m in result["metrics"].items():
            rows.append(f"{workload:14s} {name:38s} {m['value']:>16.6g} {m['unit']}")
        last = result
    if args.workload == "all":
        print("\n".join(rows))
        print(json.dumps({"correct": ok, "workloads": workloads}))
    else:
        print(json.dumps(last))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
