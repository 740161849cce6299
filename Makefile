# Build / test / bench entry points. Tier-1 verification is
# `make check` (what CI runs); `make bench-engine` runs the engine
# benchmark BENCHMARK.json declares.

GO ?= go

.PHONY: all build test race streams htap crash dist fuzz-smoke vet fmt-check check loc bench-paper bench-engine bench-test

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The morsel kernels run on a worker pool; CI runs this as its own job.
race:
	$(GO) test -race ./...

# Concurrent-stream golden tests (including the cache golden matrix and
# shared-scheduler suites) + differential parallel-join/sort/dict and
# chunk-encoding suites + the HTAP delta-pipeline and wal/delta-log
# concurrency suites under the race detector (CI's `streams` job).
streams:
	$(GO) test -race -run 'Stream|JoinParallel|SortParallel|TopK|Dict|Cache|Sched|Encoding|Htap|Delta|Wal' ./...

# The combined HTAP harness: concurrent write + analytical streams with
# quiesced answers pinned to the golden snapshot, under -race.
htap:
	$(GO) test -race -run 'Htap' ./internal/htap/ -v

# The crash matrix and corruption suites: injected faults (torn writes,
# failed fsyncs, full disk, bit flips), kill + reopen + replay, recovered
# answers pinned to the golden snapshot, under -race.
crash:
	$(GO) test -race -run 'Crash|Corrupt|Recover|Fault|Fsync|Torn|TryScan' \
		./internal/fault/ ./internal/delta/ ./internal/rcfile/ ./internal/htap/

# The distributed scatter/gather suites: golden answers at shard counts
# {1,2,4} over the wire, fragment-vs-scan differential, injected network
# faults (drop/truncate/duplicate/reset/delay), kill + restart of shard
# OS processes mid-stream, typed ErrPartial on outage, the wire codec's
# round-trip and scan-merge differentials — under -race — plus the
# network-fault and wire-table fuzz smokes (CI's `dist` job).
dist:
	$(GO) test -race -run 'Dist|NetFault|WireTable' ./...
	$(GO) test -run xxx -fuzz FuzzNetFault -fuzztime 15s ./internal/dist/
	$(GO) test -run xxx -fuzz FuzzWireTable -fuzztime 15s ./internal/dist/

# Short fuzz runs over the join key-partitioning, sort/top-K, RCF4
# dict-chunk and RLE/delta-chunk round-trips, chunk-cache key/eviction
# paths, the delta-log replay parser, the full crash-schedule →
# recover cycle of the file-backed log, and the dist table decoder.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzJoinKeys -fuzztime 15s ./internal/relal/
	$(GO) test -run xxx -fuzz FuzzSortKeys -fuzztime 15s ./internal/relal/
	$(GO) test -run xxx -fuzz FuzzDictRoundTrip -fuzztime 15s ./internal/rcfile/
	$(GO) test -run xxx -fuzz FuzzRLEDelta -fuzztime 15s ./internal/rcfile/
	$(GO) test -run xxx -fuzz FuzzChunkCache -fuzztime 15s ./internal/rcfile/
	$(GO) test -run xxx -fuzz FuzzDeltaReplay -fuzztime 15s ./internal/delta/
	$(GO) test -run xxx -fuzz FuzzCrashRecovery -fuzztime 15s ./internal/delta/
	$(GO) test -run xxx -fuzz FuzzWireTable -fuzztime 15s ./internal/dist/

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

check: fmt-check vet build test

# Non-test lines of Go: the count ROADMAP's "Halve the concepts" tracks.
loc:
	@find internal cmd examples -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

# The engine benchmark (bench/README.md): four workloads, end-to-end
# and per-layer metrics, answers checked. `bench-test` is its own
# module's short test suite.
bench-engine:
	bash bench/run.sh

bench-test:
	cd bench && $(GO) test -short ./...

# The paper-artifact benches (Tables 2–5, Figures 1–6, ablations).
bench-paper:
	$(GO) test -bench . -benchmem
