#!/usr/bin/env bash
# Documentation checks (CI "docs" job and the docs/check ctest):
#   1. Every relative markdown link in README.md, ROADMAP.md, and docs/*.md
#      resolves to an existing file.
#   2. Every backticked repository path in README.md and docs/*.md names a
#      file or directory that exists: each whitespace-separated word of a
#      `code span` that starts with a source directory (src/, tests/, tools/,
#      bench/, examples/, docs/, .github/), with a leading ./, a trailing
#      :line and trailing punctuation dropped. Words holding a glob or a
#      placeholder (* < { $) are skipped. ROADMAP.md is left out: it names
#      files that are still planned.
#   3. docs/REPRODUCE.md mentions every bench target registered in
#      bench/CMakeLists.txt, and shows every figure id registered in
#      bench/bench_figures.cc as `bench_figures --figure <id>`, so neither a
#      new bench nor a new figure can land undocumented.
# Usage: tools/check_docs.sh [repo-root]   (defaults to the script's parent)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
fail=0

# --- 1. dead relative links -------------------------------------------------
docs=("$root/README.md" "$root/ROADMAP.md")
for f in "$root"/docs/*.md; do
  [ -e "$f" ] && docs+=("$f")
done

for f in "${docs[@]}"; do
  [ -f "$f" ] || { echo "MISSING DOC: $f"; fail=1; continue; }
  dir=$(dirname "$f")
  # Markdown inline links: capture the (target) part, strip anchors/titles.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*|"") continue ;;
    esac
    target="${target%%#*}"          # drop in-page anchors
    target="${target%% *}"          # drop optional "title" part
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ]; then
      echo "DEAD LINK: $f -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
done

# --- 2. dead code-path references ------------------------------------------
code_docs=("$root/README.md")
for f in "$root"/docs/*.md; do
  [ -e "$f" ] && code_docs+=("$f")
done
paths=0
for f in "${code_docs[@]}"; do
  [ -f "$f" ] || continue
  while IFS= read -r path; do
    case "$path" in
      *'*'*|*'<'*|*'{'*|*'$'*) continue ;;
    esac
    paths=$((paths + 1))
    if [ ! -e "$root/$path" ]; then
      echo "DEAD PATH: $f -> $path"
      fail=1
    fi
  done < <(grep -oE '`[^`]+`' "$f" | tr -d '`' | tr -s ' \t' '\n' |
           sed -E 's/^\.\///; s/[,;:.)]+$//; s/:[0-9]+(-[0-9]+)?$//' |
           grep -E '^(src|tests|tools|bench|examples|docs|\.github)/' | sort -u)
done

# --- 3. REPRODUCE.md covers every bench target ------------------------------
reproduce="$root/docs/REPRODUCE.md"
if [ ! -f "$reproduce" ]; then
  echo "MISSING: docs/REPRODUCE.md"
  fail=1
else
  while IFS= read -r bench; do
    # Word-anchored so e.g. a new target "bench_fig06" is not satisfied by the
    # existing "bench_fig06_matmul_perf" row ("_" counts as a word character).
    if ! grep -qE "\b${bench}\b" "$reproduce"; then
      echo "UNDOCUMENTED BENCH: $bench missing from docs/REPRODUCE.md"
      fail=1
    fi
  done < <(grep -oE 'bench_[a-z0-9_]+' "$root/bench/CMakeLists.txt" | sort -u)
  # A figure is registered by a `Figure{"<id>", ...}` initializer in the
  # registry table; the pattern takes the quoted id that follows `Figure{`.
  # Word-anchored so "fig1" is not satisfied by "fig10".
  while IFS= read -r id; do
    if ! grep -qE "bench_figures --figure ${id}\b" "$reproduce"; then
      echo "UNDOCUMENTED FIGURE: 'bench_figures --figure $id' missing from docs/REPRODUCE.md"
      fail=1
    fi
  done < <(grep -oE 'Figure\{"[a-z0-9-]+"' "$root/bench/bench_figures.cc" |
           sed -E 's/^Figure\{"//; s/"$//')
fi

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK (${#docs[@]} files, all links resolve, $paths code paths exist," \
  "all benches and figures documented)"
