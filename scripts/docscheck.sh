#!/bin/sh
# docscheck: keeps the wire-protocol and option documentation honest.
#
# The protocol's message types and event kinds are string constants in
# internal/dist/protocol.go; README.md and docs/wire-protocol.md each
# carry a table of the event kinds (between wire-kinds markers) and
# the spec additionally tables the message types (wire-messages
# markers). This script fails when they drift in either direction:
#
#   - a constant in protocol.go missing from a documented table
#     (someone added a kind without documenting it), or
#   - a documented kind/type with no backing constant (someone renamed
#     or removed a kind and left the docs behind).
#
# It also fails when README.md, doc.go or docs/*.md name a With…
# option the root package no longer declares.
#
# Run via `make docs-check` or directly:
#
#	sh scripts/docscheck.sh
set -eu

cd "$(dirname "$0")/.."

proto=internal/dist/protocol.go
spec=docs/wire-protocol.md
readme=README.md
status=0

# Constants, from the two dedicated const blocks in protocol.go.
kinds=$(sed -n 's/^[[:space:]]*kind[A-Za-z]* *= *"\([a-z_]*\)".*/\1/p' "$proto")
types=$(sed -n 's/^[[:space:]]*msg[A-Za-z]* *= *"\([a-z_]*\)".*/\1/p' "$proto")

[ -n "$kinds" ] || { echo "docscheck: no event kinds found in $proto" >&2; exit 1; }
[ -n "$types" ] || { echo "docscheck: no message types found in $proto" >&2; exit 1; }

# marked_cells FILE MARKER — the first-column `code` cells of the
# markdown table between <!-- MARKER:begin --> and <!-- MARKER:end -->.
marked_cells() {
	sed -n "/<!-- $2:begin -->/,/<!-- $2:end -->/p" "$1" |
		sed -n 's/^| `\([a-z_]*\)`.*/\1/p'
}

check_table() { # FILE MARKER WANT-LIST LABEL
	file=$1 marker=$2 want=$3 label=$4
	have=$(marked_cells "$file" "$marker")
	if [ -z "$have" ]; then
		echo "docscheck: $file has no $marker table (markers missing?)" >&2
		status=1
		return
	fi
	for w in $want; do
		if ! printf '%s\n' "$have" | grep -qx "$w"; then
			echo "docscheck: $label \"$w\" ($proto) is missing from the $marker table in $file" >&2
			status=1
		fi
	done
	for h in $have; do
		if ! printf '%s\n' "$want" | grep -qx "$h"; then
			echo "docscheck: $file documents $label \"$h\" which $proto does not define" >&2
			status=1
		fi
	done
}

check_table "$readme" wire-kinds "$kinds" "event kind"
check_table "$spec" wire-kinds "$kinds" "event kind"
check_table "$spec" wire-messages "$types" "message type"

# Every event kind's golden file must exist and be referenced by the
# spec's examples (the spec promises each kind is illustrated by one).
for k in $kinds; do
	golden=internal/dist/testdata/golden/event_$k.json
	if [ ! -f "$golden" ]; then
		echo "docscheck: event kind \"$k\" has no golden file $golden" >&2
		status=1
	elif ! grep -qF "\"kind\":\"$k\"" "$spec"; then
		echo "docscheck: $spec shows no example frame for event kind \"$k\"" >&2
		status=1
	fi
done

# The worker conversation's per-task frames (assign, done) pin their
# encodings in golden files, which the spec must cite and show verbatim.
for m in assign done; do
	golden=internal/dist/testdata/golden/$m.json
	if [ ! -f "$golden" ]; then
		echo "docscheck: message type \"$m\" has no golden $golden" >&2
		status=1
	elif ! grep -qF "$m.json" "$spec" || ! grep -qxF "$(cat "$golden")" "$spec"; then
		echo "docscheck: $spec does not cite and show the $m.json golden" >&2
		status=1
	fi
done

# The request/reply messages (stats 1.1, trace 1.2) each pin their
# reply encoding in a golden file the spec must cite and illustrate.
for m in stats trace; do
	golden=internal/dist/testdata/golden/${m}_reply.json
	if [ ! -f "$golden" ]; then
		echo "docscheck: message type \"$m\" has no reply golden $golden" >&2
		status=1
	elif ! grep -qF "${m}_reply.json" "$spec"; then
		echo "docscheck: $spec does not cite the ${m}_reply.json golden" >&2
		status=1
	elif ! grep -qF "{\"type\":\"$m\"}" "$spec"; then
		echo "docscheck: $spec shows no bare \"$m\" request example" >&2
		status=1
	fi
done

# The job exchanges (1.3) likewise: each message pins its reply golden
# which the spec must cite, and shows a request example. The in-band
# error form has its own golden.
for m in job_submit job_status job_cancel job_result; do
	golden=internal/dist/testdata/golden/${m}_reply.json
	if [ ! -f "$golden" ]; then
		echo "docscheck: message type \"$m\" has no reply golden $golden" >&2
		status=1
	elif ! grep -qF "${m}_reply.json" "$spec"; then
		echo "docscheck: $spec does not cite the ${m}_reply.json golden" >&2
		status=1
	elif ! grep -qF "{\"type\":\"$m\"" "$spec"; then
		echo "docscheck: $spec shows no \"$m\" request example" >&2
		status=1
	fi
done
if [ ! -f internal/dist/testdata/golden/job_error_reply.json ]; then
	echo "docscheck: the job error form has no golden job_error_reply.json" >&2
	status=1
elif ! grep -qF "job_error_reply.json" "$spec"; then
	echo "docscheck: $spec does not cite the job_error_reply.json golden" >&2
	status=1
fi

# Every job state the dispatcher defines must appear in the spec's
# state-machine prose (and vice versa is covered by the constants
# being the single source the dispatcher runs on).
jobsrc=internal/jobs/jobs.go
states=$(sed -n 's/^[[:space:]]*State[A-Za-z]* *= *"\([a-z]*\)".*/\1/p' "$jobsrc")
[ -n "$states" ] || { echo "docscheck: no job states found in $jobsrc" >&2; exit 1; }
for s in $states; do
	if ! grep -qF "\`$s\`" "$spec"; then
		echo "docscheck: job state \"$s\" ($jobsrc) is missing from $spec" >&2
		status=1
	fi
done

# Every option the docs name exists: a `WithX` or pnsched.WithX in
# README.md or docs/*.md, or a WithX in doc.go, must be a func With…
# declared in the root package's non-test files.
opts=$(for f in *.go; do
	case $f in *_test.go) ;; *) sed -n 's/^func \(With[A-Za-z0-9]*\).*/\1/p' "$f" ;; esac
done)
[ -n "$opts" ] || { echo "docscheck: no With… options found in the root package" >&2; exit 1; }
named=$({
	grep -oHE '(`|pnsched\.)With[A-Z][A-Za-z0-9]*' "$readme" docs/*.md
	grep -oHE '\bWith[A-Z][A-Za-z0-9]*' doc.go
} | sed 's/:`/:/; s/:pnsched\./:/' | sort -u)
for hit in $named; do
	if ! printf '%s\n' "$opts" | grep -qx "${hit##*:}"; then
		echo "docscheck: ${hit%%:*} names option ${hit##*:}, which the root package does not declare" >&2
		status=1
	fi
done

if [ "$status" -eq 0 ]; then
	echo "docscheck: README.md and docs/wire-protocol.md agree with $proto ($(printf '%s\n' "$types" | wc -l | tr -d ' ') message types, $(printf '%s\n' "$kinds" | wc -l | tr -d ' ') event kinds); the docs name $(printf '%s\n' "$named" | sed 's/.*://' | sort -u | wc -l | tr -d ' ') options, all declared"
fi
exit "$status"
