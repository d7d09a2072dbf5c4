# .github/workflows/ci.yml calls these targets and nothing else, so
# `make ci` locally reproduces what the workflow checks.

GO ?= go

.PHONY: build test race fuzz-smoke lint apicheck analyze docs-check bench bench-e2e bench-compare bench-pairs bench-layers admin-smoke vulncheck size ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The dist server/worker/watch paths are concurrency-heavy; the race
# detector runs over the whole tree as its own CI job (and here).
race:
	$(GO) test -race ./...

# Ten seconds of coverage-guided fuzzing over the JSON-lines wire
# decoder (malformed hellos, oversized frames, unknown event kinds
# must error cleanly, never panic), as long over the hand codec of the
# per-task hot frames against encoding/json (the reflective decoder's
# values and errors, json.Marshal's bytes), as long over the same for
# the per-job frames (job_submit and the batch_decided and job_* events,
# with strings and specs in and out of the plain forms the hand codec
# takes), and as long over a read loop's reused
# decoder against a fresh one (no field of one frame leaks into the
# next), and as long over the job-journal
# record decoder plus the apply functions behind it (a record that
# decodes is refused or applied, never a panic or a negative counter)
# and over the snapshot file recovery reads beside it (the same, and what
# was applied renders to a snapshot that replays again), and as long
# over the in-place crossover kernels against the allocating operators
# they replaced (same children, same panics, same RNG draws, and a diff
# report equal to a four-way comparison of children and parents), and as
# long over the incremental evaluator's crossover-child delta against a
# from-scratch evaluation (bit-identical queues and fitness, never more
# than one chromosome's genes charged), and as long over the screened
# §3.5 rebalance step against the unscreened standalone one (same
# keep/revert decisions, chromosomes, probe counts and RNG draws), and
# as long over sequences of GA batch decisions of changing shapes in one
# reused workspace against each in a fresh one (the same statistics,
# gene ledger, assignments and observed events).
# The seed corpora live under internal/{dist,jobs,ga,core}/testdata/fuzz.
fuzz-smoke:
	$(GO) test ./internal/dist -run='^FuzzWireMessage$$' -fuzz=FuzzWireMessage -fuzztime=10s
	$(GO) test ./internal/dist -run='^FuzzWireCodec$$' -fuzz=FuzzWireCodec -fuzztime=10s
	$(GO) test ./internal/dist -run='^FuzzJobCodec$$' -fuzz=FuzzJobCodec -fuzztime=10s
	$(GO) test ./internal/dist -run='^FuzzDecoderReuse$$' -fuzz=FuzzDecoderReuse -fuzztime=10s
	$(GO) test ./internal/jobs -run='^FuzzJournalRecord$$' -fuzz=FuzzJournalRecord -fuzztime=10s
	$(GO) test ./internal/jobs -run='^FuzzJournalSnapshot$$' -fuzz=FuzzJournalSnapshot -fuzztime=10s
	$(GO) test ./internal/ga -run='^FuzzCrossover$$' -fuzz=FuzzCrossover -fuzztime=10s
	$(GO) test ./internal/core -run='^FuzzChildDelta$$' -fuzz=FuzzChildDelta -fuzztime=10s
	$(GO) test ./internal/core -run='^FuzzRebalanceScreen$$' -fuzz=FuzzRebalanceScreen -fuzztime=10s
	$(GO) test ./internal/core -run='^FuzzWorkspaceReuse$$' -fuzz=FuzzWorkspaceReuse -fuzztime=10s

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# The public-API layering gate: vet plus the layering analyzer from
# the pnanalyze suite (tools/), which checks the whole import DAG —
# cmd/ and examples/ must not import internal/core, internal/ga or
# internal/dist, and the internal layers must respect their own
# allowlists (docs/static-analysis.md has the full rule table). The
# layering analyzer is parse-only, so this gate stays sub-second.
apicheck:
	$(GO) vet ./...
	cd tools && $(GO) run ./cmd/pnanalyze -dir .. -only layering

# The full static-analysis suite: the tools/ module's own tests (each
# analyzer proves on fixtures that it fires and stays quiet), then all
# nine analyzers over the root module, then the assertion that both
# go.mod files stay dependency-free — pnanalyze itself is stdlib-only,
# and `go mod tidy -diff` fails if either module picks up a require.
analyze:
	cd tools && $(GO) test ./...
	cd tools && $(GO) run ./cmd/pnanalyze -dir ..
	$(GO) mod tidy -diff
	cd tools && $(GO) mod tidy -diff

# The documentation drift gate: the event-kind tables in README.md and
# docs/wire-protocol.md must list exactly the kind constants of
# internal/dist/protocol.go (and the spec's message-type table its msg
# constants), and every kind must have its golden file illustrated in
# the spec. Adding a kind without documenting it — or documenting one
# that no longer exists — fails CI.
docs-check:
	sh scripts/docscheck.sh

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The repo's end-to-end benchmark (BENCHMARK.json, bench/README.md): one
# workload per process, the full record appended to
# bench/out/results.jsonl.
#   make bench-e2e WORKLOAD=svc-wire SEED=3
# and the comparison of two such result sets — median and quartiles per
# workload × metric, gaps beyond the declared bound flagged:
#   make bench-compare A=before.jsonl B=after.jsonl
WORKLOAD ?= svc-wire
SEED ?= 1
bench-e2e:
	bash bench/run.sh --workload $(WORKLOAD) --seed $(SEED)

bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=<a.jsonl> B=<b.jsonl>" >&2; exit 2; }
	bash bench/run.sh -compare $(abspath $(A)) $(abspath $(B))

# Interleaved before/after pairs (scripts/benchpairs.sh): the benchmark
# built from BASE and from the working tree, PAIRS pairs on the seeds
# from SEEDS on, sides alternating first, then -compare:
#   make bench-pairs BASE=HEAD WORKLOAD=svc-journal PAIRS=10 SEEDS=31
BASE ?= HEAD
PAIRS ?= 10
SEEDS ?= 1
bench-pairs:
	bash scripts/benchpairs.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEEDS)

# The layer rows before/after (scripts/benchlayers.sh): each package's
# test binary built from BASE and from the working tree, the benchmarks
# matching RUN run interleaved for ROUNDS rounds, median, IQR and ratio
# per benchmark and unit; exit 1 when a time or allocation median is
# more than 25 % worse and the interquartile ranges do not overlap. A
# local tool, not part of ci. RUN reaches the script unexpanded, so an
# anchored regexp such as RUN='EncodeDone$|DecodeDone$' works as typed:
#   make bench-layers BASE=HEAD~1 PKG=./internal/jobs RUN=DoneJournal64 ROUNDS=10
PKG ?= ./internal/dist ./internal/jobs
RUN ?= .
ROUNDS ?= 10
bench-layers:
	bash scripts/benchlayers.sh $(BASE) "$(PKG)" '$(value RUN)' $(ROUNDS)

# Smoke the HTTP admin endpoint: short-lived pnserver -admin, curl
# /healthz and /metrics, assert the instrument families render.
admin-smoke:
	sh scripts/adminsmoke.sh

# Known-vulnerability scan. The tool is not vendored; CI installs it,
# locally it runs only when already on PATH.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipping (CI runs it)"; \
	fi

# Non-test and test Go lines per package and in total (testdata/
# excluded), then tools/ on a row of its own outside the total — quote
# both before and after in a simplicity entry.
size:
	@sh scripts/size.sh

ci: build lint apicheck analyze docs-check test race fuzz-smoke bench admin-smoke vulncheck
