#!/usr/bin/env bash
# The performance gate: runs every BENCHMARK.json workload on a base
# commit and on this working tree in alternating pairs, then lets
# cmd/benchcmp judge the runs against the metrics' bounds.
#
#   bash .github/perfgate.sh BASE
#
# Run it from the repository root. The base side is `git merge-base BASE
# HEAD`, checked out into a temporary worktree that is removed on exit;
# the head side is the working tree itself. Base runs first in even
# pairs and head in odd ones, so drift on the machine hits both sides.
# Each run's result line lands in .bench_build/perfgate/W.<side>.<pair>.json
# and its stderr beside it. Exits with benchcmp's status.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: bash .github/perfgate.sh BASE" >&2
	exit 2
fi
readonly pairs=3 seed=1

head=$(pwd)
out="$head/.bench_build/perfgate"
commit=$(git merge-base "$1" HEAD)
tmp=$(mktemp -d)
base="$tmp/base"
trap 'git -C "$head" worktree remove --force "$base" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git worktree add --detach "$base" "$commit" >&2

mapfile -t command < <(jq -r '.command[]' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
rm -rf "$out"
mkdir -p "$out"
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	for ((p = 0; p < pairs; p++)); do
		order="base head"
		if ((p % 2 == 1)); then order="head base"; fi
		for side in $order; do
			root=$head
			if [ "$side" = base ]; then root=$base; fi
			f="$out/$w.$side.$p"
			echo "perfgate: $w pair $p $side" >&2
			# A failed run leaves an empty or partial result file, which
			# benchcmp reports; the other runs still go ahead.
			(cd "$root" && "${command[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) \
				2>"$f.stderr" | tail -n 1 >"$f.json" || true
		done
	done
done
go run ./cmd/benchcmp BENCHMARK.json "$out"
