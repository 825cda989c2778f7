#!/usr/bin/env bash
# Prints how long each step of a Ninja build ran, slowest first, from the
# build's .ninja_log, then the total and its split by area, largest first.
# Each step is one single-threaded compiler or linker process, so on an
# unloaded box its seconds are CPU seconds. The log keeps the lines of every
# build in the directory: an output's last line is its latest build. The
# outputs of one step (one command hash) count once in the total.
#
# Usage: tools/build_profile.sh [build-dir | path/to/.ninja_log]
#   (default: build). Configure with `cmake -G Ninja` to get a .ninja_log.
set -u
export LC_ALL=C

log="${1:-build}"
[ -d "$log" ] && log="$log/.ninja_log"
if [ ! -f "$log" ] || ! head -n 1 "$log" | grep -q '^# ninja log v'; then
  echo "usage: tools/build_profile.sh [build-dir | path/to/.ninja_log] (no .ninja_log at $log)" >&2
  exit 1
fi

# "ms<TAB>hash<TAB>output" for each output's latest line. Fields of a log
# line: start ms, end ms, mtime, output, command hash.
latest=$(awk -F '\t' '
  /^#/ || NF < 5 { next }
  { ms[$4] = $2 - $1; hash[$4] = $5 }
  END { for (out in ms) printf "%d\t%s\t%s\n", ms[out], hash[out], out }' "$log")

printf '%10s  %s\n' "seconds" "step output"
printf '%s\n' "$latest" | sort -t "$(printf '\t')" -k1,1nr -k3,3 |
  awk -F '\t' 'NF == 3 { printf "%10.2f  %s\n", $1 / 1000, $3 }'

# Compile steps by source area (the output's first directory under the build
# dir); links, archives and any other step as one.
printf '\n%10s  %s\n' "seconds" "area"
printf '%s\n' "$latest" | awk -F '\t' '
  NF == 3 && !seen[$2]++ {
    area = $3 ~ /\.o$/ ? "compile " substr($3, 1, index($3 "/", "/") - 1) : "link/other"
    sum[area] += $1
    total += $1
    steps++
  }
  END {
    for (area in sum) printf "%d\t%s\n", sum[area], area
    printf "%d\ttotal, %d steps\n", total, steps
  }' | sort -t "$(printf '\t')" -k1,1nr -k2,2 |
  awk -F '\t' '{ printf "%10.2f  %s\n", $1 / 1000, $2 }'
