#!/bin/sh
# Lines of Go per package directory, non-test and test, and in total —
# the figure simplicity entries in CHANGES.md and ROADMAP re-anchors
# quote. tools/ (its own module) and testdata/ are not the program.
cd "$(dirname "$0")/.." || exit 1
find . -name '*.go' -not -path './tools/*' -not -path '*/testdata/*' -not -path './.bench_build/*' |
	xargs wc -l |
	awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d, $2 ~ /_test\.go$/] += $1; seen[d] }
		END { for (d in seen) print d, n[d, 0] + 0, n[d, 1] + 0 }' |
	sort |
	awk 'BEGIN { printf "%-26s %8s %8s\n", "package", "non-test", "test" }
		{ printf "%-26s %8d %8d\n", $1, $2, $3; c += $2; t += $3 }
		END { printf "%-26s %8d %8d\n", "total", c, t }'
