#!/usr/bin/env bash
# Interleaved before/after runs of the in-package layer benchmarks
# (ROADMAP item 20) — the layer half of a performance claim, as
# scripts/benchpairs.sh is the end-to-end half. Each package's test
# binary is built once from `git archive BASE` and once from the working
# tree; then ROUNDS rounds run the benchmarks matching RUN in both, the
# side that runs first alternating from round to round, and one row per
# benchmark and unit prints the median [first quartile, third quartile]
# of each side and the ratio of the medians, change over base.
#
#   scripts/benchlayers.sh BASE [PKGS [RUN [ROUNDS]]]
#   make bench-layers BASE=<rev> [PKG=<pkgs>] [RUN=<regexp>] [ROUNDS=<n>]
#
# PKGS defaults to "./internal/dist ./internal/jobs", RUN to every
# benchmark, ROUNDS to 10, and each run lasts -test.benchtime=1s. The
# exit status is 1 when some row of a time or allocation unit (ns/…,
# us/…, ms/…, B/…, allocs/…) has a change median more than 25 % (the
# bound BENCHMARK.json gives the end-to-end times) above the base median
# and a first quartile above the base's third, so the two interquartile
# ranges do not overlap; other units (records/write) print unjudged. A
# row one side lacks prints with "-" there and is not judged. It is a
# local tool, not a CI gate: on a shared 2-vCPU host an unchanged row's
# median has read up to 19 % worse, with disjoint quartiles.
# Everything is written under the git-ignored .bench_build/layers/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/benchlayers.sh BASE [PKGS [RUN [ROUNDS]]]"
base=${1:?$usage}
pkgs=${2:-./internal/dist ./internal/jobs}
run=${3:-.}
rounds=${4:-10}

# The same build environment as bench/run.sh and scripts/benchpairs.sh.
export GOCACHE="$PWD/.bench_build/go-cache" XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

work=.bench_build/layers
rm -rf "$work"
mkdir -p "$work/src"
# A second module inside the tree would confuse gofmt -l . and make size.
trap 'rm -rf "$work/src"' EXIT
git archive "$base" | tar -x -C "$work/src"
top=$PWD
# bin SIDE PKG: the path of that side's test binary of PKG.
bin() { echo "$top/$work/$1-$(echo "$2" | tr -c 'A-Za-z0-9\n' '_').test"; }
for pkg in $pkgs; do
	(cd "$work/src" && go test -c -o "$(bin base "$pkg")" "$pkg")
	go test -c -o "$(bin change "$pkg")" "$pkg"
done

# bench SIDE: one run of every package's benchmarks by that side's
# binaries, in the side's own package directory, appending one
# "benchmark unit value" line per reported figure to SIDE.txt.
bench() {
	local root=$top
	[ "$1" = base ] && root=$top/$work/src
	for pkg in $pkgs; do
		(cd "$root/$pkg" && "$(bin "$1" "$pkg")" -test.run='^$' -test.bench="$run" -test.benchmem -test.benchtime=1s) |
			awk '/^Benchmark/ { sub(/-[0-9]+$/, "", $1); for (i = 3; i < NF; i += 2) print $1, $(i + 1), $i }' \
				>>"$work/$1.txt"
	done
}
for ((i = 0; i < rounds; i++)); do
	echo "round $((i + 1))/$rounds" >&2
	if ((i % 2 == 0)); then
		bench base
		bench change
	else
		bench change
		bench base
	fi
done

# stats SIDE: "benchmark unit median q1 q3" per row, quartiles
# interpolated linearly between the sorted values.
stats() {
	sort -k1,1 -k2,2 -k3,3g "$work/$1.txt" | awk '
		function q(p,   h, l) { h = (n - 1) * p; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
		function flush() { if (n) print key, q(0.5), q(0.25), q(0.75); n = 0 }
		$1 " " $2 != key { flush(); key = $1 " " $2 }
		{ v[n++] = $3 }
		END { flush() }'
}
stats base >"$work/base.stats"
stats change >"$work/change.stats"

awk '
	function cell(m, a, b) { return m == "" ? "-" : sprintf("%.4g [%.4g, %.4g]", m, a, b) }
	FILENAME == ARGV[1] { bm[$1 " " $2] = $3; ba[$1 " " $2] = $4; bb[$1 " " $2] = $5; next }
	{ key = $1 " " $2; seen[key]; cm[key] = $3; ca[key] = $4; cb[key] = $5 }
	END {
		printf "%-34s %-14s %-30s %-30s %s\n", "benchmark", "unit", "base median [IQR]", "change median [IQR]", "ratio"
		for (key in bm) seen[key]
		n = 0
		for (key in seen) keys[n++] = key
		for (i = 1; i < n; i++)  # insertion sort: awk has no portable sort
			for (j = i; j > 0 && keys[j] < keys[j - 1]; j--) { t = keys[j]; keys[j] = keys[j - 1]; keys[j - 1] = t }
		bad = 0
		for (i = 0; i < n; i++) {
			key = keys[i]; split(key, f, " ")
			ratio = "-"; flag = ""
			if ((key in bm) && (key in cm)) {
				ratio = bm[key] > 0 ? sprintf("%.3f", cm[key] / bm[key]) : cm[key] > 0 ? "inf" : "1.000"
				if (f[2] ~ /^(ns|us|ms|B|allocs)\// && cm[key] > bm[key] * 1.25 && ca[key] > bb[key]) { flag = "  worse"; bad = 1 }
			}
			printf "%-34s %-14s %-30s %-30s %s%s\n", f[1], f[2], cell(bm[key], ba[key], bb[key]), cell(cm[key], ca[key], cb[key]), ratio, flag
		}
		exit bad
	}' "$work/base.stats" "$work/change.stats"
