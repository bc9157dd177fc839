GO ?= go

.PHONY: all fmt fmt-check vet build test loc race race-sched crash crash-ckpt crash-repl crash-failover fuzz bench bench-paper bench-smoke

all: fmt-check vet build test

fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Non-test Go lines per package directory and for the repository: the number
# every simplicity PR and ROADMAP quote. Reported, never gated.
loc:
	@find . -name '*.go' -not -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# The concurrency core, the log and the network front-end under the race
# detector. The front-end recycles every buffer on the request path (calls,
# requests, coalescing write buffers, read buffers, published hints), and its
# pipelining tests check each reply against the in-process answer.
race:
	$(GO) test -race ./internal/engine/... ./internal/occ/... ./internal/wal/... ./internal/server/...

# Steal/admission stress under the race detector, run twice: the steal
# correctness stress (affine tasks never stolen, serializable histories under
# stealing), the admission-token leak regressions (abort, overload, panic,
# yield) and the adaptive-depth controller tests.
race-sched:
	$(GO) test -race -count=2 -run 'Steal|Admission|Adaptive' ./internal/engine/

# Crash-injection matrix: kill the database at every WAL append/fsync
# boundary of a multi-container commit (including the checkpoint-write,
# truncation and checkpoint-prune boundaries of TestCrashMatrixCheckpoint),
# recover, assert all-or-nothing.
crash:
	$(GO) test -run Crash -count=2 ./internal/engine/... ./internal/wal/...

# Checkpoint crash matrix under the race detector, with the truncation-safety
# property test riding along: torn checkpoint writes, crashes between
# checkpoint and truncation, crashes mid-truncation — recovery must equal the
# acknowledged state through a double restart.
crash-ckpt:
	$(GO) test -race -run 'CrashMatrixCheckpoint|TruncationSafety' -count=1 ./internal/engine/...

# Replication crash matrix: kill the primary or the replica at every shipping
# IO boundary — mirror appends and fsyncs (including the one releasing a
# semi-sync ack), mirror segment handoff, checkpoint-blob transfer — then
# promote the surviving mirror bytes and assert a consistent committed prefix
# with atomic 2PC groups, through a double restart. The primary-kill matrix
# additionally proves semi-sync never acknowledged a commit the promoted
# replica lost. The ship layer's own tests ride along: the seeded
# cursor-to-mirror property test and the AppendShipped unit cases.
crash-repl:
	$(GO) test -race -run 'CrashRepl|Ship' -count=1 ./internal/engine/... ./internal/wal/...

# Supervised-failover crash matrix under the race detector: kill the primary
# at every commit/ship boundary, let the supervisor detect + fence + promote
# the freshest semi-sync mirror + re-point the survivor, then double-restart
# the promoted node. The black-box history checker rides along: no
# acknowledged commit lost, no committed read un-happens, and the fenced
# zombie's writes are rejected at both the WAL and wire layers (proven by the
# fence-ablation arm, which shows the lost-update the fence prevents). The
# primary-kill matrix then runs 50 more times: its interleavings ride
# goroutine timing, and the lost acknowledged commit it once caught showed in
# about one run in six.
crash-failover:
	$(GO) test -race -run CrashFailover -count=1 ./internal/engine/...
	$(GO) test -race -run TestCrashFailoverPrimaryKillMatrix -count=50 ./internal/engine/

# Fuzz smoke for the decoders of untrusted bytes. WAL record and checkpoint
# decoding: corrupt frames must be ErrCorrupt — forcing checkpoint fallback to
# full replay — never a panic or a silent mis-decode. The wire codec (frame
# reader, execute, query and result bodies): never a panic, never more
# allocated than a small multiple of the input, and what decodes survives
# encode and decode unchanged.
fuzz:
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/wal
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=10s ./internal/wal
	$(GO) test -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeExecuteReq$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeResultMsg$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeQueryReq$$' -fuzztime=10s ./internal/server

# The repository's one benchmark: five wire workloads on the real profile
# (zero modeled costs, WAL on files with real fsync, loopback TCP), judged by
# BENCHMARK.json.
bench:
	$(GO) run ./benchmark

# The paper's figures and tables on the modeled profile (virtual-core costs,
# in-memory storage); every throughput/latency pair comes from one run.
bench-paper:
	$(GO) run ./cmd/reactdb-bench -all

# Smoke of everything that measures: a short pass of the benchmark, one
# iteration of every Go benchmark, and the smallest paper figure.
bench-smoke:
	$(GO) run ./benchmark -short
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/reactdb-bench -experiment fig5
