GO ?= go

.PHONY: all fmt fmt-check vet build test race race-sched crash crash-ckpt crash-repl crash-failover fuzz bench bench-wal bench-2pc bench-ckpt bench-sched bench-sched-check bench-query bench-query-check bench-storage bench-storage-check bench-repl bench-repl-check bench-server bench-server-check

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
# replica lost.
crash-repl:
	$(GO) test -race -run CrashRepl -count=1 ./internal/engine/...

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

bench:
	$(GO) test -run=XXX -bench=. -benchtime=1x ./...

# Smoke-run the durability sweep (modeled vs WAL, window x batch) in its
# quick configuration.
bench-wal:
	$(GO) run ./cmd/reactdb-bench -experiment durability

# Smoke-run the 2PC durability sweep (eager vs group-committed participant
# logging) in its quick configuration.
bench-2pc:
	$(GO) run ./cmd/reactdb-bench -experiment twopc

# Smoke-run the checkpoint sweep (log growth + recovery time vs checkpoint
# interval) in its quick configuration.
bench-ckpt:
	$(GO) run ./cmd/reactdb-bench -experiment checkpoint

# Run the scheduler sweep (load skew x work stealing x static/adaptive depth)
# and append a dated entry to the bench history.
bench-sched:
	$(GO) run ./cmd/reactdb-bench -experiment scheduler -json-history BENCH_sched.json

# Gate on the scheduler bench history: fail if any sweep point's mean
# per-transaction cost regressed >35% against the previous entry (throughput
# sweeps are noisier than the storage micro-bench, hence the wider band).
bench-sched-check:
	$(GO) run ./cmd/reactdb-bench -compare BENCH_sched.json -max-regression 0.35

# Run the declarative-query sweep (join fan-out x secondary index x greedy vs
# naive planning) and append a dated entry to the bench history.
bench-query:
	$(GO) run ./cmd/reactdb-bench -experiment query -json-history BENCH_query.json

# Gate on the query bench history: fail if any sweep point's per-query latency
# regressed >35% against the previous entry.
bench-query-check:
	$(GO) run ./cmd/reactdb-bench -compare BENCH_query.json -max-regression 0.35

# Run the storage hot-path sweep (point read / scan / RMW, ns + allocs +
# bytes per logical row op) and append a dated entry to the bench history.
bench-storage:
	$(GO) run ./cmd/reactdb-bench -experiment storage -json-history BENCH_storage.json

# Gate on the storage bench history: fail if the newest entry regressed >20%
# in ns/op or allocs/op against the previous one.
bench-storage-check:
	$(GO) run ./cmd/reactdb-bench -compare BENCH_storage.json

# Run the replication sweep (ack mode x replica count: commit latency
# quantiles, freshness lag, catch-up time) and append a dated entry to the
# bench history.
bench-repl:
	$(GO) run ./cmd/reactdb-bench -experiment replication -json-history BENCH_repl.json

# Gate on the replication bench history: fail if any sweep point's mean
# per-transaction wall time regressed >50% against the previous entry. Only
# the throughput-derived mean is gated — commit quantiles and catch-up ride
# the replica's poll timing and stay trend-only — and the band is the widest
# of the gated sweeps because semi-sync points still breathe with scheduling.
bench-repl-check:
	$(GO) run ./cmd/reactdb-bench -compare BENCH_repl.json -max-regression 0.50

# Run the network front-end sweep (routing policy x key skew x client count
# over a primary + fresh replica + lagging replica fleet) and append a dated
# entry to the bench history.
bench-server:
	$(GO) run ./cmd/reactdb-bench -experiment server -json-history BENCH_server.json

# Gate on the server bench history: fail if any sweep point's mean per-op
# latency regressed >60% against the previous dated entry. The band is the
# widest of the gates — end-to-end latency over loopback TCP rides kernel
# scheduling and replica poll timing. Entries from the trend-only era carry
# ns_per_op 0 and re-baseline instead of failing.
bench-server-check:
	$(GO) run ./cmd/reactdb-bench -compare BENCH_server.json -max-regression 0.60
