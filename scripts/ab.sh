#!/usr/bin/env bash
# Paired A/B runs of the end-to-end benchmark: the working tree ("after")
# against a base revision ("before").
#
#   scripts/ab.sh <base-rev> <workload> <pairs> [bench/run.sh args...]
#   scripts/ab.sh HEAD~1 node_dense 10 --seed 1
#
# The base revision is exported with `git archive` into a fresh
# `mktemp -d` directory under .bench_build/ (no network, nothing
# registered in .git), removed on exit; concurrent runs on one base get
# separate trees, and a run killed past its trap leaves only a stray
# directory behind. Each pair runs `bash bench/run.sh --workload
# <workload>` once in each tree, in an order drawn per pair from a seeded
# generator (AB_SEED=<0..32767> replays one; by default the clock picks
# it), so a position effect cannot line up with one side. The seed and
# each pair's order are printed and written to the output directory
# (order-seed, order), next to both result files as before-<i>.json /
# after-<i>.json in a fresh directory under .bench_build/ab/. tfrec-ab then prints, per declared
# metric, each side's median and IQR, the median paired ratio, the wins
# and a verdict. Merge the directories of several invocations with
# `go run ./cmd/tfrec-ab -before B.json -after A.json DIR...`.
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: scripts/ab.sh <base-rev> <workload> <pairs> [bench/run.sh args...]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3
shift 3
root="$(git rev-parse --show-toplevel)"
rev="$(git -C "$root" rev-parse --verify "$base^{commit}")"
mkdir -p "$root/.bench_build"
wt="$(mktemp -d "$root/.bench_build/ab-base-${rev:0:12}-XXXXXX")"
trap 'rm -rf "$wt"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$wt"

result="result-$workload.json"
case " $* " in
*" --trace 1 "* | *" --trace=1 "*) result="result-$workload-trace.json" ;;
esac
out="$root/.bench_build/ab/$workload-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
seed=${AB_SEED:-$(($(date +%s%N) / 1000 % 32768))}
RANDOM=$seed
echo "order seed $seed" >&2
echo "$seed" >"$out/order-seed"

# run_side <side> <tree> <pair> [run.sh args...]: one benchmark run, its
# log and result file kept under $out
run_side() {
	local side=$1 tree=$2 i=$3
	shift 3
	echo "--- pair $i: $side" >&2
	(cd "$tree" && bash bench/run.sh --workload "$workload" "$@" >"$out/$side-$i.log" 2>&1)
	cp "$tree/bench/out/$result" "$out/$side-$i.json"
}

for ((i = 1; i <= pairs; i++)); do
	if ((RANDOM % 2)); then
		echo "$i before after" >>"$out/order"
		run_side before "$wt" "$i" "$@"
		run_side after "$root" "$i" "$@"
	else
		echo "$i after before" >>"$out/order"
		run_side after "$root" "$i" "$@"
		run_side before "$wt" "$i" "$@"
	fi
done
echo "runs kept in $out" >&2
(cd "$root" && go run ./cmd/tfrec-ab "$out")
