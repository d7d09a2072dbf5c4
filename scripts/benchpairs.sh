#!/usr/bin/env bash
# Interleaved before/after pairs of one benchmark workload — how a
# performance claim is measured (bench/README.md, "Noise"). The bench
# binary is built once from `git archive BASE` and once from the working
# tree; then PAIRS pairs run on seeds FIRST, FIRST+1, ..., the side that
# runs first alternating from pair to pair, and the two result sets are
# compared with `-compare` (exit status 1 when it flags a gap).
#
#   scripts/benchpairs.sh BASE WORKLOAD [PAIRS [FIRST [SECONDS]]]
#   make bench-pairs BASE=<rev> WORKLOAD=<w> PAIRS=10 SEEDS=<first>
#
# PAIRS defaults to 10, FIRST to 1 and SECONDS to 15 (BENCHMARK.json's
# run length). Everything is written under the git-ignored bench/out/:
# both binaries and each run's journal and log under bench/out/pairs/,
# the records in bench/out/pairs-WORKLOAD-{base,change}.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/benchpairs.sh BASE WORKLOAD [PAIRS [FIRST [SECONDS]]]"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
first=${4:-1}
seconds=${5:-15}

# The same build environment as bench/run.sh, so both sides are built
# alike and the go command leaves no process behind.
export GOCACHE="$PWD/.bench_build/go-cache" XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

work=bench/out/pairs
rm -rf "$work"
mkdir -p "$work/src" "$work/base" "$work/change"
git archive "$base" | tar -x -C "$work/src"
(cd "$work/src" && go build -o ../pnbench-base ./bench)
rm -rf "$work/src" # a second module inside the tree would confuse gofmt -l . and make size
go build -o "$work/pnbench-change" ./bench

# run SIDE SEED: one run of the workload by that side's binary.
run() {
	echo "pair seed $2: $1" >&2
	"$work/pnbench-$1" -out "$work/$1" -workload "$workload" -seed "$2" -seconds "$seconds" >"$work/$1-$2.log"
}
for ((i = 0; i < pairs; i++)); do
	seed=$((first + i))
	if ((i % 2 == 0)); then
		run base "$seed"
		run change "$seed"
	else
		run change "$seed"
		run base "$seed"
	fi
done

for side in base change; do
	cp "$work/$side/results.jsonl" "bench/out/pairs-$workload-$side.jsonl"
done
exec "$work/pnbench-change" -compare "bench/out/pairs-$workload-base.jsonl" "bench/out/pairs-$workload-change.jsonl"
