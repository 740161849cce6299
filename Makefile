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
# table's structure in each representation, the Int-key rule) + dict,
# predicate, range-condition and key-set soundness and chunk-encoding
# differentials + the HTAP
# delta-pipeline and wal/delta-log concurrency suites under the race
# detector (CI's `streams` job).
streams:
	$(GO) test -race -run 'Stream|Join|Sort|Aggregate|TopK|Dict|Pred|Cache|Sched|Encoding|Htap|Delta|Wal' ./...

# The HTAP suites under -race: the golden matrix (held rows replayed
# through the delta log, quiesced answers pinned to the golden snapshot,
# tail and converted), the close rule (commits close each ConvertRows
# records of tail), the log-only recovery and the concurrent test —
# BSON writers from a test-local loop beside tpch.RunStreams and a
# StatsNow poller — then quiesce, convert and pin the same snapshot.
htap:
	$(GO) test -race -run 'Htap' ./internal/htap/ -v

# The crash matrix and corruption suites: injected faults on the delta
# log (torn appends, failed fsyncs, full disk, bit flips), kill + reopen
# + replay from the log alone, recovered answers pinned to the golden
# snapshot, and RCF7 chunk/footer corruption detection, under -race.
crash:
	$(GO) test -race -run 'Crash|Corrupt|Recover|Fault|Fsync|Torn|TryScan' \
		./internal/fault/ ./internal/delta/ ./internal/rcfile/ ./internal/htap/

# The distributed scatter/gather suites: golden answers at shard counts
# {1,2,4} over the wire, shard-side filtering (a shard ships only the
# rows that pass the pushed conditions and lie in any pushed key set,
# the empty set included), fragment-vs-scan differential, injected
# network faults (drop/truncate/duplicate/reset/delay), kill + restart
# of shard OS processes mid-stream, typed ErrPartial on outage, kept
# sessions (reuse, sequence echo, the redial after a shard restart,
# Shard.Close with idle sessions), the wire codec's round-trip and
# scan-merge differentials — under -race —
# plus the network-fault and wire-table fuzz smokes (CI's `dist` job).
dist:
	$(GO) test -race -run 'Dist|NetFault|WireTable' ./...
	$(GO) test -run xxx -fuzz FuzzNetFault -fuzztime 15s ./internal/dist/
	$(GO) test -run xxx -fuzz FuzzWireTable -fuzztime 15s ./internal/dist/

# Short fuzz runs over the join key table's three representations
# (slot array, packed-key map, byte-key map), sort/top-K, group-by
# key encodings and morsel merge, the range conditions and key sets
# (ZoneCond.On over raw and dictionary columns against the naive
# comparison or membership, against zone pruning and after a gob round
# trip), RCF7 dict-chunk and gdict+rle/delta-chunk round-trips, every
# chunk decoder behind re-stamped CRCs (stored and deflated, its own
# allocation bounded), chunk-cache key/eviction paths, the delta-log
# replay parser, the full crash-schedule → recover cycle of the
# file-backed log, Q6 through the scattered, shard-filtered scan under
# injected network faults, the dist table decoder, and the BSON decoder
# of the HTAP write path (accepts exactly what Marshal produces) — every
# fuzz target CI runs.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzJoinKeys -fuzztime 15s ./internal/relal/
	$(GO) test -run xxx -fuzz FuzzSortKeys -fuzztime 15s ./internal/relal/
	$(GO) test -run xxx -fuzz FuzzGroupKeys -fuzztime 15s ./internal/relal/
	$(GO) test -run xxx -fuzz FuzzPredCond -fuzztime 15s ./internal/relal/
	$(GO) test -run xxx -fuzz FuzzDictRoundTrip -fuzztime 15s ./internal/rcfile/
	$(GO) test -run xxx -fuzz FuzzRunsDelta -fuzztime 15s ./internal/rcfile/
	$(GO) test -run xxx -fuzz FuzzChunkDecode -fuzztime 15s ./internal/rcfile/
	$(GO) test -run xxx -fuzz FuzzChunkCache -fuzztime 15s ./internal/rcfile/
	$(GO) test -run xxx -fuzz FuzzDeltaReplay -fuzztime 15s ./internal/delta/
	$(GO) test -run xxx -fuzz FuzzCrashRecovery -fuzztime 15s ./internal/delta/
	$(GO) test -run xxx -fuzz FuzzNetFault -fuzztime 15s ./internal/dist/
	$(GO) test -run xxx -fuzz FuzzWireTable -fuzztime 15s ./internal/dist/
	$(GO) test -run xxx -fuzz FuzzBSONUnmarshal -fuzztime 15s ./internal/docstore/

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The sim/real seam, both ways. The paper-side front doors (core,
# tpchbench, ycsbbench) model Hive, PDW, Mongo and SQL Server on the
# simulator and must not link the engine's storage, durability, fault or
# distribution layers — engine numbers come from bench/, not from a
# driver in core. And the engine (its packages, its CLIs and the
# benchmark binary) must link none of the simulator's packages.
SIM_PKGS = sim|cluster|metrics|wal|sqleng|shard|ycsb|mapreduce|hive|pdw|core
ENGINE_PKGS = ./internal/relal ./internal/rcfile ./internal/storage ./internal/tpch ./internal/delta \
	./internal/fault ./internal/docstore ./internal/htap ./internal/dist ./cmd/dbgen ./cmd/scanstats
seam:
	@out=$$($(GO) list -deps ./internal/core ./cmd/tpchbench ./cmd/ycsbbench | \
		grep -E '^elephants/internal/(rcfile|delta|fault|htap|dist)$$' || true); \
	if [ -n "$$out" ]; then echo "sim side links the engine:"; echo "$$out"; exit 1; fi
	@out=$$({ $(GO) list -deps $(ENGINE_PKGS); $(GO) -C bench list -deps .; } | \
		grep -E '^elephants/internal/($(SIM_PKGS))$$' | sort -u || true); \
	if [ -n "$$out" ]; then echo "engine side links the simulator:"; echo "$$out"; exit 1; fi

check: fmt-check vet seam build test bench-test

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
