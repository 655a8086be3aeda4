#!/bin/sh
# A/B run of the repository benchmark (perfbench/README.md): a base
# commit against the checkout this runs in, both built and measured on
# the same machine. Run from the root of the checkout:
#
#   sh tools/perf_compare.sh BASE
#
# BASE is checked out in a git worktree under .bench_build/compare/.
# Each side builds its own perf.exe and runs
# `perf.exe suite --seed 2008 --reps 3` in its own tree; the checkout's
# `perf.exe compare` then gates the two outputs,
# .bench_build/compare/{base,cand}.json, against BENCHMARK.json.
#
# Exit 1 when the checkout's suite fails its correctness gate (an
# interval that is uncertified or misses the exact CTMC value) or
# compare calls a metric regressed; compare also calls any rise of
# failed_frac over the base a regression. A base that does not build or
# fails its own correctness gate, and an unresolved compare (a base
# spread wider than the bound), are reported as warnings. When BASE is
# empty, names no commit or predates perfbench/, only the checkout's
# suite runs, for its correctness gate.
set -u

base=${1:-}
out=$PWD/.bench_build/compare
src=$out/base-src
mkdir -p "$out"
rm -f "$out/base.json" "$out/cand.json"
status=0

# suite DIR FILE: build perf.exe in the source tree DIR and run the suite
# there (a suite writes its scratch files under its working directory).
suite() {
  (cd "$1" &&
    dune build --root . --display quiet ./perfbench/perf.exe &&
    ./_build/default/perfbench/perf.exe suite --seed 2008 --reps 3 --out "$2")
}

if [ -n "$base" ] &&
  git rev-parse --verify --quiet "$base^{commit}" >/dev/null &&
  git cat-file -e "$base:perfbench/perf.ml" 2>/dev/null; then
  git worktree remove --force "$src" 2>/dev/null
  rm -rf "$src"
  git worktree prune
  git worktree add --detach "$src" "$base" >/dev/null || exit 1
  trap 'git worktree remove --force "$src"' EXIT
  echo "perf-compare: base $(git rev-parse --short "$base")"
  suite "$src" "$out/base.json" ||
    echo "::warning::perf compare: the base's suite did not build or failed its correctness gate"
else
  echo "perf-compare: no base with perfbench/ to compare against;" \
    "running the correctness gate only"
  base=
fi

suite . "$out/cand.json" || status=1

if [ -n "$base" ] && [ -s "$out/base.json" ] && [ -s "$out/cand.json" ]; then
  ./_build/default/perfbench/perf.exe compare BENCHMARK.json \
    "$out/base.json" "$out/cand.json"
  case $? in
    0) ;;
    3) echo "::warning::perf compare: unresolved (a base spread exceeds its bound)" ;;
    *) status=1 ;;
  esac
fi

[ "$status" -eq 0 ] || echo "perf-compare: FAIL"
exit "$status"
