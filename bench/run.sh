#!/usr/bin/env bash
# Build the benchmark from source and run it: BENCHMARK.json's command.
# Everything the build writes stays inside the checkout — the Go build
# cache and the go command's own config under .bench_build/, the binary
# and everything a run writes under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Without the program there is nothing to measure: say so before any
# process is started.
for f in go.mod run.go serve.go jobs.go internal/jobs internal/dist internal/core; do
	if [ ! -e "$f" ]; then
		echo "bench/run.sh: $f not found: this checkout does not hold the program" >&2
		exit 2
	fi
done

export GOCACHE="$PWD/.bench_build/go-cache" XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local
# The go command's telemetry starts a detached child of its own the
# first time it sees a fresh config directory, and that child can
# outlive the build. Mode "off" in the config keeps go a single process
# tree that has ended when `go build` returns.
mkdir -p bench/out "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o bench/out/pnbench-e2e ./bench
exec bench/out/pnbench-e2e -out bench/out "$@"
