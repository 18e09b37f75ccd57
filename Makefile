# Tier-1 gate: make check (fmt + vet + build + test).

GO ?= go

# The benchmark JSON written by bench-json and gated by bench-gate: an
# untracked scratch file. To regenerate the committed baseline instead,
# pass BENCH_OUT=BENCH_PRn.json; only the newest one is ever read.
BENCH_OUT ?= bench-latest.json
# Allowed allocs/op growth (percent) before bench-gate fails; ns/op beyond
# it is reported as advisory, and hashed-B/op may not grow at all.
BENCH_TOLERANCE ?= 20
# The package set every bench target runs: the harness tables plus the
# storage and core microbenchmarks. bench and bench-json MUST agree on
# this list, or the committed JSON and the interactive numbers drift
# apart.
BENCH_PKGS = . ./internal/storage ./internal/core

.PHONY: build test test-race test-net bench bench-json bench-gate bench-save bench-e2e fmt vet check experiments loc loc-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent machinery (save pipeline,
# multi-job service, sharded chunk store, parallel restore engine, the
# single-flight read cache, tiered batch reads). CI runs this as its own
# job.
test-race:
	$(GO) test -race ./...

# Network integration test: builds the real qckpt and train binaries,
# starts `qckpt serve` on an ephemeral port, trains/resumes/fleets
# against it over HTTP, then verifies and restores the store the server
# left behind. Gated behind QCKPT_NET_TEST=1 (it shells out to go build
# and binds a TCP socket), so plain `make test` never touches the
# network. CI runs this as its own job.
test-net:
	QCKPT_NET_TEST=1 $(GO) test ./cmd/qckpt -run TestNetServeTrainRestore -v -count=1 -timeout 5m

bench:
	$(GO) test -bench=. -benchmem -run '^$$' $(BENCH_PKGS)

# Machine-readable benchmark metrics for tracking the perf trajectory
# across PRs (see cmd/benchjson). Two steps, not a pipe, so a failing
# benchmark fails the target instead of writing a truncated JSON. Each
# benchmark runs BENCH_COUNT times and benchjson keeps the per-benchmark
# minimum of the cost columns, so the committed numbers (and the gate
# below) measure the code, not scheduler noise.
BENCH_COUNT ?= 3
bench-json:
	$(GO) test -bench=. -benchmem -count=$(BENCH_COUNT) -run '^$$' $(BENCH_PKGS) > bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < bench.out
	@rm -f bench.out
	@echo wrote $(BENCH_OUT)

# Perf-regression gate: compare $(BENCH_OUT) against the newest committed
# baseline (the highest-numbered BENCH_PR*.json that is not the output
# itself) and fail when any benchmark's allocs/op regressed more than
# $(BENCH_TOLERANCE)%, when its hashed-B/op (a restore's SHA-256 traffic:
# LoadReport.BytesHashed, a count of the code and the fixture) grew by a
# byte, or when a baseline benchmark disappeared. allocs/op
# is hardware-independent. ns/op is not — the baseline's host is not this
# one, and the same tree has failed and passed on ns/op within a day — so
# its movement is printed as ADVISORY lines that never fail the target;
# wall-clock regressions are judged by bench-e2e's paired runs against
# BENCHMARK.json's bounds.
bench-gate:
	@base=$$(ls BENCH_PR*.json 2>/dev/null | grep -vx '$(BENCH_OUT)' | sort -V | tail -n 1); \
	if [ -z "$$base" ]; then echo "bench-gate: no committed baseline, nothing to compare"; exit 0; fi; \
	echo "bench-gate: $(BENCH_OUT) vs $$base (tolerance $(BENCH_TOLERANCE)%)"; \
	$(GO) run ./cmd/benchjson -compare -tolerance $(BENCH_TOLERANCE) "$$base" "$(BENCH_OUT)"

# Quick save-path benchmark: the T6 experiment table plus the
# BenchmarkTable6SavePath metrics (stalls, bytes written, allocs/op for
# the pooled pipeline).
bench-save:
	$(GO) run ./cmd/experiments -run T6 -quick
	$(GO) test -bench 'Table6SavePath' -benchmem -run '^$$' .

# The repo's end-to-end benchmark (BENCHMARK.json, bench/README.md): all
# four workloads at the default 24 s each, or `make bench-e2e
# WORKLOAD=substep_local SECONDS=8`. Exits non-zero when a run is not
# correct.
WORKLOAD ?= all
SECONDS ?= 24
bench-e2e:
	$(GO) run -buildvcs=false ./bench -workload $(WORKLOAD) -seconds $(SECONDS)

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

check:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

experiments:
	$(GO) run ./cmd/experiments -quick

# ROADMAP's "non-test LOC goes down" as a ratchet: loc prints two figures
# — the non-test lines of internal/storage + internal/core, then those of
# internal/ + cmd/ as a whole (the ROADMAP's headline number) — and
# loc-gate (CI's check job) fails when either exceeds its ceiling. A PR
# that shrinks the code lowers the ceilings to its own counts; one that
# must grow it raises them in its own diff, where a reviewer sees it.
# PR 22 raised both by the reference index's net cost (+85 / +108): what it
# retired (the per-pass scan's plumbing, the try-lock, gc's listing and
# Stat-before-Delete) was smaller than the index, its candidate set and the
# service's commit/delete pair. PR 23 raised both by +207, the net cost of
# restoring on the pooled codec layer: the view's manifest memo, the
# ownership half of every signature that hands a payload on, scratch-backed
# inflation, and the test hook on the pools' edges. PR 24 (one hash per
# restored state) paid for its unchecked read, the probe-vs-read header
# check and the exact hashed-B/op gate out of ChunkStore.GetBatch, which it
# deleted: -2 / 0. The order-0 compressibility probe (+27) and the replica
# health generation (+19) raised both by +46. PR 26 paid PRs 22-25 back in
# part: -200 / -205 of exported code only tests called (archive.go, Tiered's
# Promote/Demote, OpenChunkStore, Shards, ResetStats, Options.FullIngest).
# One chunk planner for the fixed and the content-defined rule (splitChunks,
# the offset compare and the three-case CDC plan gone) and ChunkStore.GC's
# deletion lowered both by -123. CHANGES.md has the accounts.
# The leaf-root payload identity raised both by +77 / +78; no deletion pays it yet, so ROADMAP item 2 carries it.
LOC_CEILING = 9641
LOC_CEILING_ALL = 23765
loc:
	@find internal/storage internal/core -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
loc-gate:
	@set -- $$($(MAKE) -s loc); \
	echo "loc-gate: $$1 non-test lines in internal/storage + internal/core (ceiling $(LOC_CEILING)), $$2 in internal/ + cmd/ (ceiling $(LOC_CEILING_ALL))"; \
	[ "$$1" -le $(LOC_CEILING) ] && [ "$$2" -le $(LOC_CEILING_ALL) ]
