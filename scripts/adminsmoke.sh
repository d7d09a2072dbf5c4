#!/bin/sh
# adminsmoke: end-to-end smoke test of the HTTP admin endpoint.
#
# Phase 1 starts a short-lived pnserver with -admin, curls /healthz
# and /metrics, and asserts the scrape is Prometheus exposition format
# carrying the pool-level pnsched_* series. No workers connect; the
# point is that the admin plane answers independently of scheduling
# traffic. The same pnserver must refuse pnjobs: without -jobs it takes
# no job_* requests.
#
# Phase 2 does the same for the job dispatcher: pnserver -jobs plus
# one pnworker, a job submitted and run to completion with pnjobs. The
# same pool-level series must be there under the same names (both
# services sit on one worker pool), plus the job-level pnsched_jobs_*
# ones, with the run's counts on them.
#
# Phase 3 proves the job journal survives a real crash: a dispatcher
# started with -journal runs a job to completion, dies by kill -9,
# restarts on the same directory, and must still answer pnjobs status
# for the pre-kill job — with the pnsched_jobs_journal_* metrics
# non-zero on the restarted instance, and the task and job counters
# still counting the pre-kill run: they read the restored state.
# Run via `make admin-smoke`.
set -eu

cd "$(dirname "$0")/.."

addr=${ADMINSMOKE_ADDR:-127.0.0.1:19724}
srvaddr=${ADMINSMOKE_SERVE_ADDR:-127.0.0.1:19723}
base="http://$addr"

fetch() { # URL
	if command -v curl >/dev/null 2>&1; then
		curl -fsS "$1"
	elif command -v wget >/dev/null 2>&1; then
		wget -qO- "$1"
	else
		echo "adminsmoke: neither curl nor wget available" >&2
		exit 2
	fi
}

# The pool-level series, exported under these names by pnserver and
# pnserver -jobs alike, and the job-level ones only the dispatcher adds.
pool_series="pnsched_tasks_submitted_total pnsched_tasks_completed_total
	pnsched_tasks_reissued_total pnsched_tasks_dispatched_total
	pnsched_batches_total pnsched_protocol_decode_errors_total
	pnsched_dispatch_latency_seconds pnsched_batch_wall_seconds
	pnsched_pending_tasks pnsched_running_tasks pnsched_workers
	pnsched_worker_believed_rate_mflops pnsched_worker_tasks_completed
	pnsched_events_published_total pnsched_events_dropped_total
	pnsched_watcher_queue_depth pnsched_watcher_dropped_total"
job_series="pnsched_jobs_submitted_total pnsched_jobs_finished_total
	pnsched_jobs_scheduling_latency_seconds pnsched_jobs_queue_depth
	pnsched_jobs_by_state pnsched_jobs_workers_leased
	pnsched_jobs_journal_records_total"

have_series() { # WHO METRICS NAME...
	who=$1 scrape=$2
	shift 2
	for family in "$@"; do
		if ! printf '%s\n' "$scrape" | grep -q "^# TYPE $family "; then
			echo "adminsmoke: $who /metrics missing series $family" >&2
			printf '%s\n' "$scrape" | head -20 >&2
			exit 1
		fi
	done
}

bindir=$(mktemp -d)
# $pids is word-split on purpose; empty stages drop out of the kill.
trap 'for p in $pid $jobspid $workerpid; do kill "$p" 2>/dev/null || true; done; rm -rf "$bindir"' EXIT
pid= jobspid= workerpid=
go build -o "$bindir" ./cmd/pnserver ./cmd/pnworker ./cmd/pnjobs

"$bindir/pnserver" -listen "$srvaddr" -admin "$addr" -tasks 50 -quiet &
pid=$!

# Wait for the admin listener.
i=0
until fetch "$base/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "adminsmoke: admin endpoint $addr never came up" >&2
		exit 1
	fi
	sleep 0.1
done

health=$(fetch "$base/healthz")
[ "$health" = "ok" ] || { echo "adminsmoke: /healthz said \"$health\", want ok" >&2; exit 1; }

metrics=$(fetch "$base/metrics")
# $pool_series is word-split on purpose.
have_series pnserver "$metrics" $pool_series pnsched_ga_runs_total
if printf '%s\n' "$metrics" | grep -q '^# TYPE pnsched_jobs_'; then
	echo "adminsmoke: pnserver without -jobs exports job-level series" >&2
	exit 1
fi
if ! printf '%s\n' "$metrics" | grep -q "^pnsched_tasks_submitted_total 50$"; then
	echo "adminsmoke: /metrics does not show the 50 submitted tasks" >&2
	exit 1
fi
if "$bindir/pnjobs" -addr "$srvaddr" queue >/dev/null 2>&1; then
	echo "adminsmoke: pnserver without -jobs answered pnjobs queue" >&2
	exit 1
fi

kill "$pid" 2>/dev/null || true
pid=

echo "adminsmoke: /healthz and /metrics OK on $addr"

# ---- phase 2: the job dispatcher ----

jobsaddr=${ADMINSMOKE_JOBS_ADDR:-127.0.0.1:19725}
jobsadmin=${ADMINSMOKE_JOBS_ADMIN:-127.0.0.1:19726}
jobsbase="http://$jobsadmin"

"$bindir/pnserver" -jobs -listen "$jobsaddr" -admin "$jobsadmin" \
	-policy fair -weights 'gold=3,free=1' -quiet &
jobspid=$!

i=0
until fetch "$jobsbase/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "adminsmoke: dispatcher admin endpoint $jobsadmin never came up" >&2
		exit 1
	fi
	sleep 0.1
done

"$bindir/pnworker" -connect "$jobsaddr" -rate 200 -timescale 0.0002 &
workerpid=$!

"$bindir/pnjobs" -addr "$jobsaddr" submit -tenant gold -tasks 40 -wait >/dev/null

metrics=$(fetch "$jobsbase/metrics")
have_series "pnserver -jobs" "$metrics" $pool_series pnsched_ga_runs_total $job_series
for want in \
	'^pnsched_jobs_submitted_total 1$' \
	'^pnsched_jobs_finished_total{state="done"} 1$' \
	'^pnsched_tasks_submitted_total 40$' \
	'^pnsched_tasks_completed_total 40$' \
	'^pnsched_batches_total [1-9]' \
	'^pnsched_workers 1$'; do
	if ! printf '%s\n' "$metrics" | grep -q "$want"; then
		echo "adminsmoke: dispatcher /metrics does not match $want" >&2
		printf '%s\n' "$metrics" | grep '^pnsched_' >&2 || true
		exit 1
	fi
done

echo "adminsmoke: dispatcher ran 1 job and exported the pool-level pnsched_* and job-level pnsched_jobs_* series on $jobsadmin"

kill "$jobspid" 2>/dev/null || true
kill "$workerpid" 2>/dev/null || true
jobspid= workerpid=
wait 2>/dev/null || true

# ---- phase 3: journal crash-restart ----

jrnladdr=${ADMINSMOKE_JOURNAL_ADDR:-127.0.0.1:19727}
jrnladmin=${ADMINSMOKE_JOURNAL_ADMIN:-127.0.0.1:19728}
jrnlbase="http://$jrnladmin"
jrnldir="$bindir/journal"

"$bindir/pnserver" -jobs -listen "$jrnladdr" -admin "$jrnladmin" \
	-journal "$jrnldir" -quiet &
jobspid=$!

i=0
until fetch "$jrnlbase/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "adminsmoke: journaled dispatcher admin $jrnladmin never came up" >&2
		exit 1
	fi
	sleep 0.1
done

"$bindir/pnworker" -connect "$jrnladdr" -rate 200 -timescale 0.0002 &
workerpid=$!

jobid=$("$bindir/pnjobs" -addr "$jrnladdr" submit -tasks 40 -wait | awk 'NR==1{print $1}')
[ -n "$jobid" ] || { echo "adminsmoke: journaled submit printed no job id" >&2; exit 1; }

# The crash: SIGKILL, no shutdown path runs. The journal already holds
# every acknowledged transition.
kill -9 "$jobspid" 2>/dev/null || true
wait "$jobspid" 2>/dev/null || true
jobspid=

"$bindir/pnserver" -jobs -listen "$jrnladdr" -admin "$jrnladmin" \
	-journal "$jrnldir" -quiet &
jobspid=$!

i=0
until fetch "$jrnlbase/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "adminsmoke: restarted dispatcher admin $jrnladmin never came up" >&2
		exit 1
	fi
	sleep 0.1
done

status=$("$bindir/pnjobs" -addr "$jrnladdr" status "$jobid")
if ! printf '%s\n' "$status" | grep -q "state=done"; then
	echo "adminsmoke: pre-kill job $jobid not done after restart: $status" >&2
	exit 1
fi

# A post-restart submission appends fresh records and must get a
# never-used ID — the counter is durable too.
newid=$("$bindir/pnjobs" -addr "$jrnladdr" submit -tasks 5 | awk 'NR==1{print $1}')
if [ -z "$newid" ] || [ "$newid" = "$jobid" ]; then
	echo "adminsmoke: post-restart submission got id \"$newid\" (pre-kill was $jobid)" >&2
	exit 1
fi

metrics=$(fetch "$jrnlbase/metrics")
for want in \
	'^pnsched_jobs_journal_records_total [1-9]' \
	'^pnsched_jobs_journal_writes_total [1-9]' \
	'^pnsched_jobs_journal_bytes_total [1-9]' \
	'^pnsched_jobs_journal_snapshots_total [1-9]' \
	'^pnsched_jobs_journal_snapshot_bytes_total [1-9]' \
	'^pnsched_jobs_journal_replay_seconds [0-9.e+-]*[1-9]' \
	'^pnsched_tasks_completed_total 40$' \
	'^pnsched_jobs_finished_total{state="done"} 1$'; do
	if ! printf '%s\n' "$metrics" | grep -q "$want"; then
		echo "adminsmoke: restarted /metrics does not match $want" >&2
		printf '%s\n' "$metrics" | grep '^pnsched_' >&2 || true
		exit 1
	fi
done

echo "adminsmoke: journaled dispatcher survived kill -9; $jobid still done after restart"
