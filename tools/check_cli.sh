#!/usr/bin/env bash
# End-to-end CLI flag-validation smoke (tools/check_cli ctest and the CI smoke
# job): malformed --metrics-interval / --trace-out values must fail fast with a
# usage error instead of silently running a misconfigured simulation, and a
# good --trace-out run must produce a Chrome trace JSON that passes
# tools/check_trace.sh. A trace with a prompt over the prefill budget must
# still finish on both engines, and one with a request larger than the KV pool
# must finish with that request shed. inspect on a directory or on a crafted
# artifact must exit 1 with a message. An unknown --dist, --scenario, --sched
# or --policy name must exit 1 listing every accepted name, and a LoRA
# cluster's label must name its engine. Every numeric flag of trace, simulate
# and cluster must reject a non-number, an out-of-range value, hex and a '+'
# sign with exit 1; so must counts past their caps, a redundancy wider than
# the cluster, and a trace header past the model cap. Given a bench_soak
# binary too, it checks that bad window counts and a bad --quick value exit 2
# with a message instead of running.
# Usage: tools/check_cli.sh path/to/dzip_cli [repo-root] [path/to/bench_soak]
set -u

if [ $# -lt 1 ] || [ ! -x "$1" ]; then
  echo "usage: tools/check_cli.sh path/to/dzip_cli [repo-root] [path/to/bench_soak]" >&2
  exit 1
fi
cli="$1"
root="${2:-$(cd "$(dirname "$0")/.." && pwd)}"
soak="${3:-}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
fail=0

# A small trace every case below replays (2 models, ~20 requests).
if ! "$cli" trace --out "$tmp/t.jsonl" --models 2 --rate 2.0 --duration 10 \
    --seed 7 >/dev/null; then
  echo "FAIL: trace generation"
  exit 1
fi

# Each bad invocation must exit 1 (not 0, nor an abort, a trap or a timeout)
# AND mention the offending flag.
expect_reject() {
  local what="$1" flag="$2"
  shift 2
  timeout 60 "$cli" "$@" >"$tmp/out" 2>"$tmp/err"
  local code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL: $what — expected a usage error (exit 1), got exit $code"
    fail=1
  elif ! grep -q -- "$flag" "$tmp/err"; then
    echo "FAIL: $what — stderr does not mention $flag:"
    cat "$tmp/err"
    fail=1
  else
    echo "ok: $what rejected"
  fi
}

expect_reject "non-numeric metrics interval" "metrics-interval" \
  simulate --trace "$tmp/t.jsonl" --metrics-interval abc
expect_reject "negative metrics interval" "metrics-interval" \
  simulate --trace "$tmp/t.jsonl" --metrics-interval -5
expect_reject "empty trace-out path" "trace-out" \
  simulate --trace "$tmp/t.jsonl" --trace-out ""
expect_reject "trace-out without a value" "trace-out" \
  simulate --trace "$tmp/t.jsonl" --trace-out
expect_reject "cluster non-numeric metrics interval" "metrics-interval" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --metrics-interval abc
expect_reject "cluster empty trace-out path" "trace-out" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --trace-out ""

# Numeric flags that used to abort, trap or wrap.
expect_reject "non-numeric model count" "--models" \
  trace --out "$tmp/bad.jsonl" --models abc
expect_reject "zero model count" "--models" trace --out "$tmp/bad.jsonl" --models 0
expect_reject "model count past int" "--models" \
  trace --out "$tmp/bad.jsonl" --models 1e12
expect_reject "non-numeric duration" "--duration" \
  trace --out "$tmp/bad.jsonl" --duration abc
expect_reject "negative rate" "--rate" trace --out "$tmp/bad.jsonl" --rate -5
expect_reject "non-numeric tensor parallelism" "--tp" \
  simulate --trace "$tmp/t.jsonl" --tp abc
expect_reject "zero concurrent deltas" "--n" simulate --trace "$tmp/t.jsonl" --n 0
expect_reject "non-numeric concurrent deltas" "--n" \
  simulate --trace "$tmp/t.jsonl" --n abc
expect_reject "non-numeric LoRA rank" "--rank" \
  simulate --trace "$tmp/t.jsonl" --engine lora --rank abc

# A worker whose base model, reserve and one artifact overflow its GPUs used to
# abort on a DZ_CHECK; it is a usage error naming the flags to change.
expect_reject "13B on one 3090" "--model" \
  simulate --trace "$tmp/t.jsonl" --gpu 3090 --model 13b --tp 1
expect_reject "70B on one A800" "--model" simulate --trace "$tmp/t.jsonl" --model 70b --tp 1
expect_reject "LoRA adapter past GPU memory" "--rank" \
  simulate --trace "$tmp/t.jsonl" --engine lora --rank 100000
expect_reject "vLLM-SCB 70B on one A800 per worker" "--model" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --engine vllm-scb --model 70b --tp 1

# Every flag a usage text shows with a number ("[--tp 4]", "--gpus 4",
# "[--prefetch 0|1]") must reject 'abc', '1e12', '0x10' and '+1', so a numeric
# flag added later without validation fails here.
for cmd in trace simulate cluster; do
  flags=$("$cli" help "$cmd" | grep -oE -- '--[a-z0-9-]+ [0-9][0-9.|]*([] ]|$)' |
    cut -d' ' -f1 | sort -u)
  if [ "$(echo "$flags" | wc -l)" -lt 9 ]; then
    echo "FAIL: found only these numeric flags in the $cmd usage: $flags"
    fail=1
  fi
  for flag in $flags; do
    for value in abc 1e12 0x10 +1; do
      case "$cmd" in
        trace) set -- trace --out "$tmp/bad.jsonl" ;;
        simulate) set -- simulate --trace "$tmp/t.jsonl" ;;
        cluster) set -- cluster --trace "$tmp/t.jsonl" --gpus 2 ;;
      esac
      expect_reject "$cmd $flag $value" "$flag" "$@" "$flag" "$value"
    done
  done
done

# Counts past their caps (2^16 models and tenants, 2^12 workers) used to
# abort allocating, or run for minutes; the trace header has the same cap.
expect_reject "model count past the cap" "--models" \
  trace --out "$tmp/bad.jsonl" --models 2000000000
expect_reject "tenant count past the cap" "--tenants" \
  trace --out "$tmp/bad.jsonl" --tenants 2000000000
expect_reject "worker count past the cap" "--gpus" \
  cluster --trace "$tmp/t.jsonl" --gpus 2000000000
expect_reject "autoscaler ceiling past the cap" "--max-workers" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --autoscale 1 --max-workers 2000000000
sed '1s/"n_models":[0-9]*/"n_models":2000000000/' "$tmp/t.jsonl" >"$tmp/huge.jsonl"
if ! grep -q '"n_models":2000000000' "$tmp/huge.jsonl"; then
  echo "FAIL: could not write the huge-header trace"
  fail=1
fi
expect_reject "trace header model count past the cap" "trace" \
  simulate --trace "$tmp/huge.jsonl"

# A redundancy policy needs one worker per fragment.
expect_reject "replication wider than the cluster" "--replication" \
  cluster --trace "$tmp/t.jsonl" --gpus 4 --replication 7
expect_reject "erasure stripe wider than the cluster" "--erasure" \
  cluster --trace "$tmp/t.jsonl" --gpus 4 --erasure 4,2

# Kernel backend selection: unknown names must fail with the compiled list.
expect_reject "unknown kernel isa" "isa" \
  simulate --trace "$tmp/t.jsonl" --isa bogus
expect_reject "cluster unknown kernel isa" "isa" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --isa bogus

# A forced-scalar run must complete and name the scalar backend in its header
# (scalar is compiled into every binary, so this is machine-independent).
if ! "$cli" simulate --trace "$tmp/t.jsonl" --isa scalar >"$tmp/out" 2>&1; then
  echo "FAIL: forced-scalar simulate run"
  cat "$tmp/out"
  fail=1
elif ! grep -q "kernel backend: scalar" "$tmp/out"; then
  echo "FAIL: forced-scalar run does not report the scalar backend"
  cat "$tmp/out"
  fail=1
else
  echo "ok: forced-scalar simulate run"
fi

# A prompt larger than the per-iteration prefill budget (2048 tokens by
# default) prefills alone instead of waiting forever: both engines finish.
sed '2s/"prompt":[0-9]*/"prompt":3000/' "$tmp/t.jsonl" >"$tmp/big.jsonl"
if ! grep -q '"prompt":3000' "$tmp/big.jsonl"; then
  echo "FAIL: could not write the oversized-prompt trace"
  fail=1
fi
for engine in deltazip vllm-scb; do
  timeout 30 "$cli" simulate --trace "$tmp/big.jsonl" --engine "$engine" >"$tmp/out" 2>&1
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL: $engine simulate with an oversized prompt exited $code (124: timed out)"
    fail=1
  else
    echo "ok: $engine simulate with an oversized prompt"
  fi
done

# A request whose prompt + output exceeds the whole KV pool could never run:
# both engines shed exactly that one and finish the rest, also when the two
# counts sit near the int limit (their sum must not overflow).
sed '2s/"output":[0-9]*/"output":5000000/' "$tmp/t.jsonl" >"$tmp/kv_out.jsonl"
sed '2s/"prompt":[0-9]*/"prompt":2000000000/; 2s/"output":[0-9]*/"output":2000000000/' \
  "$tmp/t.jsonl" >"$tmp/kv_both.jsonl"
if ! grep -q '"output":5000000' "$tmp/kv_out.jsonl" ||
    ! grep -q '"prompt":2000000000,"output":2000000000' "$tmp/kv_both.jsonl"; then
  echo "FAIL: could not write the larger-than-KV-pool traces"
  fail=1
fi
for trace in kv_out kv_both; do
  for engine in deltazip vllm-scb; do
    timeout 30 "$cli" simulate --trace "$tmp/$trace.jsonl" --engine "$engine" >"$tmp/out" 2>&1
    code=$?
    # The report's "shed (interactive/standard/batch)  a/b/c" row, summed.
    shed=$(awk '$1 == "shed" { n = split($NF, c, "/"); s = 0;
                               for (i = 1; i <= n; i++) s += c[i]; print s }' "$tmp/out")
    if [ "$code" -ne 0 ]; then
      echo "FAIL: $engine simulate of $trace exited $code (124: timed out)"
      fail=1
    elif [ "$shed" != "1" ]; then
      echo "FAIL: $engine simulate of $trace shed '${shed}' requests, want 1"
      fail=1
    else
      echo "ok: $engine simulate of $trace sheds the larger-than-KV-pool request"
    fi
  done
done

# inspect on something that is not an artifact exits 1 with a message, never
# an abort: a directory, and a file whose zeros length wraps the reader's bound
# (one dense layer, empty words and scales, length 2^64 - 67 at offset 60,
# zero-padded to 140 bytes).
printf 'DZIP\001\0\0\0\002\0\0\0\0\100\0\0\0\0\0\0\0\0\0\001\0\0\0' \
  >"$tmp/wrap.bin"
head -c 33 /dev/zero >>"$tmp/wrap.bin"
printf '\275\377\377\377\377\377\377\377' >>"$tmp/wrap.bin"
head -c 72 /dev/zero >>"$tmp/wrap.bin"
# And a well-formed 8x16 2:4 layer whose header says group_size 0, which
# must not reach the division that derives the group count.
printf 'DZIP\001\0\0\0\004\0\0\0\001\0\0\0\0\0\0\0\0\0\0\001\0\0\0' \
  >"$tmp/group0.bin"
{
  printf '\0\0\0\0\001\010\0\0\0\020\0\0\0\004\0\0\0'  # name, 2:4, rows, cols, bits
  printf '\010\0\0\0\0\0\0\0'; head -c 32 /dev/zero  # 8 code words
  printf '\010\0\0\0\0\0\0\0'; head -c 32 /dev/zero  # 8 index words
  printf '\020\0\0\0\0\0\0\0'; head -c 32 /dev/zero  # 16 fp16 scales
  printf '\020\0\0\0\0\0\0\0'; head -c 16 /dev/zero  # 16 zeros
  head -c 28 /dev/zero  # empty embedding, lm_head and norm deltas
} >>"$tmp/group0.bin"
for artifact in "$tmp" "$tmp/wrap.bin" "$tmp/group0.bin"; do
  "$cli" inspect --artifact "$artifact" >"$tmp/out" 2>"$tmp/err"
  code=$?
  if [ "$code" -ne 1 ] || ! grep -q "not a valid DeltaZip artifact" "$tmp/err"; then
    echo "FAIL: inspect of $artifact exited $code, want 1 and a message:"
    cat "$tmp/err"
    fail=1
  else
    echo "ok: inspect of $artifact rejected"
  fi
done

# An unknown enum name exits 1 and lists every accepted one.
expect_reject "unknown --dist" "(uniform, zipf, azure)" \
  trace --out "$tmp/x.jsonl" --dist pareto
expect_reject "unknown --scenario" "(steady, diurnal, flash-crowd, heavy-tail)" \
  trace --out "$tmp/x.jsonl" --scenario weekend
expect_reject "unknown --sched" "(fcfs, priority, dwfq)" \
  simulate --trace "$tmp/t.jsonl" --sched lifo
expect_reject "unknown cluster --sched" "(fcfs, priority, dwfq)" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --sched lifo
expect_reject "unknown --policy" \
  "(round-robin, least-outstanding, delta-affinity, tenant-affinity)" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --policy zigzag

# The cluster label names the workers' engine: a LoRA cluster is
# "deltazip-lora x2", not "deltazip x2".
if ! "$cli" cluster --trace "$tmp/t.jsonl" --gpus 2 --engine lora >"$tmp/out" 2>&1; then
  echo "FAIL: LoRA cluster run"
  cat "$tmp/out"
  fail=1
elif ! grep -q "deltazip-lora x2 \[" "$tmp/out"; then
  echo "FAIL: LoRA cluster label does not name its engine:"
  grep "cluster" "$tmp/out"
  fail=1
else
  echo "ok: LoRA cluster label names deltazip-lora"
fi

# Artifact-registry flags: malformed redundancy / net settings fail fast too.
expect_reject "zero replication factor" "replication" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --replication 0
expect_reject "malformed erasure spec (missing m)" "erasure" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --erasure 4
expect_reject "replication and erasure together" "mutually exclusive" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --replication 2 --erasure 2,1
expect_reject "non-positive net bandwidth" "net-gbps" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --replication 2 --net-gbps 0
expect_reject "overflowing replication factor" "replication" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --replication 99999999999

# Fault specs: numbers with two dots and non-integer or out-of-range worker
# ids are rejected, not truncated.
expect_reject "fault time with two dots" "faults" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --faults "crash@1.2.3:w1"
expect_reject "fractional fault worker id" "faults" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --faults "crash@5:w1.9"
expect_reject "out-of-range fault worker id" "faults" \
  cluster --trace "$tmp/t.jsonl" --gpus 2 --faults "crash@5:w99999999999"

# A good registry run under a worker crash must complete and echo the
# normalized fault plan (the FaultPlanToSpec round-trip) in its report.
if ! "$cli" cluster --trace "$tmp/t.jsonl" --gpus 2 --replication 2 \
    --faults "crash@5:w1,detect=1" >"$tmp/out" 2>&1; then
  echo "FAIL: replicated registry cluster run"
  cat "$tmp/out"
  fail=1
elif ! grep -q "crash@5:w1,detect=1" "$tmp/out"; then
  echo "FAIL: replicated registry run did not echo its fault plan"
  cat "$tmp/out"
  fail=1
else
  echo "ok: replicated registry cluster run"
fi

# Good runs: simulate and cluster each write a validating Chrome trace.
if ! "$cli" simulate --trace "$tmp/t.jsonl" --trace-out "$tmp/sim.json" \
    >"$tmp/out" 2>&1; then
  echo "FAIL: traced simulate run"
  cat "$tmp/out"
  fail=1
elif ! grep -q "trace events" "$tmp/out"; then
  echo "FAIL: traced simulate run did not report its trace export"
  fail=1
else
  "$root/tools/check_trace.sh" "$tmp/sim.json" || fail=1
fi

if ! "$cli" cluster --trace "$tmp/t.jsonl" --gpus 2 --trace-out "$tmp/clu.json" \
    >"$tmp/out" 2>&1; then
  echo "FAIL: traced cluster run"
  cat "$tmp/out"
  fail=1
else
  "$root/tools/check_trace.sh" "$tmp/clu.json" || fail=1
fi

# Every worker keeps its in-run metrics timeline: the JSONL holds timeline
# lines for each GPU and ends with the merged snapshot. The same run with the
# autoscaler on must succeed.
metrics="$tmp/clu_metrics.jsonl"
if ! "$cli" cluster --trace "$tmp/t.jsonl" --gpus 2 --policy round-robin \
    --metrics-interval 5 --metrics-out "$metrics" >"$tmp/out" 2>&1; then
  echo "FAIL: static cluster metrics run"
  cat "$tmp/out"
  fail=1
elif ! grep -q '"gpu":"0","phase":"timeline"' "$metrics" ||
    ! grep -q '"gpu":"1","phase":"timeline"' "$metrics"; then
  echo "FAIL: static cluster metrics lack per-GPU timeline lines"
  fail=1
elif ! tail -n 1 "$metrics" | grep -q '"gpu":"merged"'; then
  echo "FAIL: static cluster metrics do not end with the merged snapshot"
  fail=1
else
  echo "ok: static cluster per-GPU metrics timelines"
fi
if ! "$cli" cluster --trace "$tmp/t.jsonl" --gpus 2 --policy round-robin \
    --metrics-interval 5 --metrics-out "$metrics" --autoscale 1 \
    >"$tmp/out" 2>&1; then
  echo "FAIL: autoscaled cluster metrics run"
  cat "$tmp/out"
  fail=1
else
  echo "ok: autoscaled cluster metrics run"
fi
# Workers keep one engine across fault boundaries, so a crash run keeps every
# GPU's timeline too.
if ! "$cli" cluster --trace "$tmp/t.jsonl" --gpus 4 --policy round-robin \
    --faults "crash@30:w1,detect=1" \
    --metrics-interval 5 --metrics-out "$metrics" >"$tmp/out" 2>&1; then
  echo "FAIL: crash cluster metrics run"
  cat "$tmp/out"
  fail=1
else
  missing=""
  for g in 0 1 2 3; do
    grep -q "\"gpu\":\"$g\",\"phase\":\"timeline\"" "$metrics" || missing="$missing $g"
  done
  if [ -n "$missing" ]; then
    echo "FAIL: crash cluster metrics lack timeline lines for GPU(s)$missing"
    fail=1
  else
    echo "ok: crash cluster per-GPU metrics timelines"
  fi
fi

# bench_soak window sizing: each bad value must exit 2 naming the flag. The
# other flag is kept tiny so a regression cannot start a long soak.
expect_soak_reject() {
  local flag="$1"
  shift
  "$soak" "$@" >"$tmp/out" 2>"$tmp/err"
  local code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: bench_soak $* — expected exit 2, got $code"
    fail=1
  elif ! grep -q -- "$flag" "$tmp/err"; then
    echo "FAIL: bench_soak $* — stderr does not mention $flag:"
    cat "$tmp/err"
    fail=1
  else
    echo "ok: bench_soak $* rejected"
  fi
}

if [ -n "$soak" ]; then
  expect_soak_reject "--windows" --windows 0 --requests-per-window 10
  expect_soak_reject "--windows" --windows abc --requests-per-window 10
  expect_soak_reject "--windows" --windows -3 --requests-per-window 10
  expect_soak_reject "--requests-per-window" --windows 1 --requests-per-window 0
  expect_soak_reject "--requests-per-window" --windows 1 --requests-per-window 5x
  expect_soak_reject "--windows" --requests-per-window 10 --windows
  expect_soak_reject "--quick" --quick abc --windows 1 --requests-per-window 10
fi

if [ "$fail" -ne 0 ]; then
  echo "cli check FAILED"
  exit 1
fi
echo "cli check OK"
