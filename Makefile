# Build / test / bench entry points. Tier-1 verification is
# `make check` (what CI runs); `make bench-engine` runs the engine
# benchmark BENCHMARK.json declares and `make bench-cover` reports which
# engine code that benchmark executes.

GO ?= go

.PHONY: all build test race streams htap crash dist fuzz-smoke vet fmt-check seam check loc bench-paper bench-engine bench-test bench-cover

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The morsel kernels run on a worker pool; CI runs this as its own job.
race:
	$(GO) test -race ./...

# Concurrent-stream golden tests (including the cache golden matrix and
# shared-scheduler suites) + every join, sort/top-K and group-by suite
# (each kernel against its naive oracle at every worker count, the key
# table's structure, the Int-key rule) + dict, predicate-factory and
# chunk-encoding differentials + the HTAP delta-pipeline and
# wal/delta-log concurrency suites under the race detector (CI's
# `streams` job).
streams:
	$(GO) test -race -run 'Stream|Join|Sort|Aggregate|TopK|Dict|Pred|Cache|Sched|Encoding|Htap|Delta|Wal' ./...

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

# Short fuzz runs over the join key-partitioning, sort/top-K, group-by
# key encodings and morsel merge, RCF6 dict-chunk and RLE/delta-chunk
# round-trips, chunk-cache key/eviction paths, the delta-log replay
# parser, the full crash-schedule → recover cycle of the file-backed
# log, and the dist table decoder.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzJoinKeys -fuzztime 15s ./internal/relal/
	$(GO) test -run xxx -fuzz FuzzSortKeys -fuzztime 15s ./internal/relal/
	$(GO) test -run xxx -fuzz FuzzGroupKeys -fuzztime 15s ./internal/relal/
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

# The sim/real seam: the paper-side front doors (core, tpchbench,
# ycsbbench) model Hive, PDW, Mongo and SQL Server on the simulator and
# must not link the engine's storage, durability, fault or distribution
# layers — engine numbers come from bench/, not from a driver in core.
seam:
	@out=$$($(GO) list -deps ./internal/core ./cmd/tpchbench ./cmd/ycsbbench | \
		grep -E '^elephants/internal/(rcfile|delta|fault|htap|dist)$$' || true); \
	if [ -n "$$out" ]; then echo "sim side links the engine:"; echo "$$out"; exit 1; fi

check: fmt-check vet seam build test

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

# "Did we verify or guess the traffic?": builds the unmodified benchmark
# with coverage counters in every elephants package (with
# -coverpkg=elephants/internal/... alone, main is not instrumented and
# the run writes no counter files), runs the four workloads briefly with
# --check under bench/run.sh's toolchain environment — each twice,
# untraced and traced, so callees only the traced probes reach do not
# read as dead — merges the counters, drops the bench/ lines (the root
# module cannot resolve them), and prints per-file statement coverage of
# the engine packages and every function in them that no workload
# executed. Fails unless all eight runs end "correct":true. Everything
# lands in .bench_build/.
COVER_PKGS = internal/(relal|rcfile|tpch|htap|delta|dist|fault)/
bench-cover:
	@set -eu; build="$$PWD/.bench_build"; cover="$$build/cover"; \
	rm -rf "$$cover"; mkdir -p "$$build/tmp"; \
	export GOCACHE="$$build/gocache" GOTMPDIR="$$build/tmp" GOPATH="$$build/gopath" \
		GOMODCACHE="$$build/gopath/pkg/mod" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local; \
	$(GO) -C bench build -cover -coverpkg=elephants/... -o ../.bench_build/enginebench.cover .; \
	dirs=""; \
	for w in mem-stream rcfile-cold htap-mixed dist-scatter; do for tr in 0 1; do \
		run="$$cover/$$w-trace$$tr"; mkdir -p "$$run"; dirs="$$dirs,$$run"; \
		GOCOVERDIR="$$run" "$$build/enginebench.cover" --workload $$w --seconds 5 --trace $$tr --check \
			2>"$$run.log" | tail -n 1 >"$$run.json"; \
		echo "$$w --trace $$tr: $$(grep -oE '"(correct|attempted|failed)":[a-z0-9]+' "$$run.json" | tr '\n' ' ')"; \
		grep -q '"correct":true' "$$run.json"; \
	done; done; \
	$(GO) tool covdata textfmt -i="$${dirs#,}" -o "$$cover/all.txt"; \
	grep -v '^elephants/bench/' "$$cover/all.txt" >"$$cover/engine.txt"; \
	echo; echo "statements covered, per file:"; \
	awk -F'[: ]' 'NR > 1 && $$1 ~ "$(COVER_PKGS)" { n[$$1] += $$(NF-1); if ($$NF > 0) c[$$1] += $$(NF-1) } \
		END { for (f in n) printf "  %-48s %5.1f%%  %4d/%d\n", f, 100*c[f]/n[f], c[f], n[f] }' "$$cover/engine.txt" | sort; \
	echo; echo "functions no workload executed:"; \
	$(GO) tool cover -func="$$cover/engine.txt" | awk '$$1 ~ "$(COVER_PKGS)" && $$NF == "0.0%" { print "  " $$1, $$2 }'

# The paper-artifact benches (Tables 2–5, Figures 1–6, ablations).
bench-paper:
	$(GO) test -bench . -benchmem
