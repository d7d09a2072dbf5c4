#!/bin/sh
# Lines of Go per package directory, non-test and test, and in total —
# the figure simplicity entries in CHANGES.md and ROADMAP re-anchors
# quote. tools/ (its own module, the pnanalyze suite) and testdata/ are
# not the program: tools/ gets one row of its own after the total, so a
# change that grows the analyzers shows it without moving the total.
cd "$(dirname "$0")/.." || exit 1
{
	find . -name '*.go' -not -path './tools/*' -not -path '*/testdata/*' -not -path './.bench_build/*' |
		xargs wc -l |
		awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d, $2 ~ /_test\.go$/] += $1; seen[d] }
			END { for (d in seen) print d, n[d, 0] + 0, n[d, 1] + 0 }' |
		sort
	find ./tools -name '*.go' -not -path '*/testdata/*' |
		xargs wc -l |
		awk '$2 != "total" { n[$2 ~ /_test\.go$/] += $1 } END { print "tools/", n[0] + 0, n[1] + 0 }'
} |
	awk 'BEGIN { printf "%-26s %8s %8s\n", "package", "non-test", "test" }
		$1 == "tools/" { tools = $0; next }
		{ printf "%-26s %8d %8d\n", $1, $2, $3; c += $2; t += $3 }
		END { printf "%-26s %8d %8d\n", "total", c, t; split(tools, f, " "); printf "%-26s %8d %8d\n", f[1], f[2], f[3] }'
