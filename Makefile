# Tier-1 gate: make check (fmt + vet + build + test).

GO ?= go

# The benchmark JSON written by bench-json and gated by bench-gate: an
# untracked scratch file. To regenerate the committed baseline instead,
# pass BENCH_OUT=BENCH_PRn.json; only the newest one is ever read.
BENCH_OUT ?= bench-latest.json
# Allowed allocs/op growth (percent) before bench-gate fails; ns/op beyond
# it is reported as advisory, and the count columns may not grow at all.
BENCH_TOLERANCE ?= 20

.PHONY: build test test-race test-net bench bench-json bench-gate bench-e2e fmt vet check experiments loc loc-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent machinery (save pipeline,
# multi-job service, shared chunk store, parallel restore engine, the
# single-flight read cache, replicated fan-out). CI runs this as its own
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

# The go-test benchmark suite: micro and count benchmarks, each beside the
# code it measures.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Machine-readable benchmark metrics for tracking the perf trajectory
# across PRs (see cmd/benchjson). Two steps, not a pipe, so a failing
# benchmark fails the target instead of writing a truncated JSON. Each
# benchmark runs BENCH_COUNT times and benchjson keeps the per-benchmark
# minimum of the cost columns, so the committed numbers (and the gate
# below) measure the code, not scheduler noise.
BENCH_COUNT ?= 3
bench-json:
	$(GO) test -bench=. -benchmem -count=$(BENCH_COUNT) -run '^$$' ./... > bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < bench.out
	@rm -f bench.out
	@echo wrote $(BENCH_OUT)

# Perf-regression gate: compare $(BENCH_OUT) against the newest committed
# baseline (the highest-numbered BENCH_PR*.json that is not the output
# itself) and fail when any benchmark's allocs/op regressed more than
# $(BENCH_TOLERANCE)%, when one of its count columns (hashed-B/op, crc-B/op,
# validated-B/op, bytes-written/op, the retention pass's *-ops/op;
# cmd/benchjson's gateRules) grew at all, or when a baseline benchmark
# disappeared.
# allocs/op is hardware-independent. ns/op is not — the baseline's host is
# not this one — so its movement is printed as ADVISORY lines that never
# fail the target; wall-clock regressions are judged by bench-e2e's paired
# runs against BENCHMARK.json's bounds.
bench-gate:
	@base=$$(ls BENCH_PR*.json 2>/dev/null | grep -vx '$(BENCH_OUT)' | sort -V | tail -n 1); \
	if [ -z "$$base" ]; then echo "bench-gate: no committed baseline, nothing to compare"; exit 0; fi; \
	echo "bench-gate: $(BENCH_OUT) vs $$base (tolerance $(BENCH_TOLERANCE)%)"; \
	$(GO) run ./cmd/benchjson -compare -tolerance $(BENCH_TOLERANCE) "$$base" "$(BENCH_OUT)"

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
# Replicated's one push and one listing fan-out, its dropped range read, the dead archive class and qckpt's one store opener paid it back: -90 / -152.
# cmd/train's one job runner (single job and fleet), qckpt's one restore verb and T9's unreachable read interceptors: 0 / -138.
# One diff per save (the dirty-granule map behind the delta XOR, the chunk plan and the leaf hash) raised both by +97 / +97; no deletion pays it yet, so ROADMAP item 2 carries it.
# A store and a key as core's only name for a snapshot (one InspectSnapshot for the file-path readers; Options.Dir, ServiceOptions.Dir, resultPath and Service.JobView gone) paid back the one-diff-per-save raise: -108 / -107.
# Section CRCs from the one diff (shift4K, the seal, stored granule CRCs) raised both by +59 / +60, net of EncodeDelta and DecodePayload's sectionReader; ROADMAP item 2 carries it.
# One save ledger (SaveCost, save.go split out of manager.go stage by stage; Options.Placement, Stats.EncodeTime/WriteTime, chargeQoS, withDefaults and the harness's save stopwatches gone) paid it back: -65 / -82.
# One benchmark gate (cmd/benchjson's promoted columns gone, gateMetrics become a unit → rule table): 0 / -3.
# A sub-step save's trainer thread at O(dirty) (the parameter check from the diff, zero-on-release delta bodies, one-copy float sections, writeChunks' scratch on the manager) raised both by +172 / +173, net of dispatch and the product cdcPieces; no deletion pays it yet, so ROADMAP item 2 carries it.
# One op hook (storage.Observe; Tier, consistency.Recorder, T9's and T12's meters and core's lifecycle fault hook rebuilt on it) lowered internal/ + cmd/ by -8 (23 610 -> 23 602) but raised internal/storage + internal/core by +81 (9 700 -> 9 781, the ceiling +75): the hook lives in storage and most of what it replaced did not. That +75 is paid by the line below.
# One lock per table (the chunk store's verified set and core's pin table lose their 32-way striping, ShardIndex and NewShardedChunkStore): -100 / -100. It pays the op hook's +75 and 25 of the O(dirty) sub-step save's +172; ROADMAP item 2's write merge carries the rest of that raise, +147 / +73.
# One clock (internal/clock, +22 in internal/: the ledgers, the scheduler, QoS, replica health, leases and the client's backoff read it; the scheduler's two waits become one loop, markActivity, idleFor and the QoS bucket's clock fields go, and every single restore is timed by LoadCost.Total instead of a stopwatch) paid its own lines and 11 / 2 of the O(dirty) sub-step save's raise: -11 / -2; ROADMAP item 2's write merge carries the rest, +136 / +71.
# One read-through rule in Tiered (GetBatch asks each level, in one batch, only for what every warmer level missed; its goroutines, matrices and Get retry gone), Replicated's occupancy forwarding, TieredDirLevels and remote.Options.RetryBase gone, net of Mem's ranged read, the batch-equals-Get property and the clean-% floor rule: -36 / -33. It pays 36 / 33 of the O(dirty) sub-step save's raise; ROADMAP item 2's write merge carries the rest, +100 / +38.
# One request path in remote.Client (call sends every request under one of three retry rules, idempotent, commit and once; doIdem, PutClass's loop, Delete's special case and ten verbs' status/decode blocks gone) and batch records cut in place (api.CutBatchRecord replaces ReadBatchRecord and maxBatchRecord; GetBatch's duplicate collapse gone): 0 / -116. It pays the second figure's last +38 of the O(dirty) sub-step save's raise; ROADMAP item 2's write merge carries the first figure's +100.
# The anchor in one batch (the view's native-batch probe, the anchor warm and its cache guard, Tiered's batch declared only over a batching level), the dirty map's set-bit walk and one-granule test, and AppendPayload's layout free list raised both by +67 / +67; no deletion pays it yet, so ROADMAP item 2 carries it beside PR 40's +100.
# The read cache caches reads only (the Coalescer's PutClass, IngestKeyed[Class], CollectOrphans and ForwardCaps call and storage.Forward gone; api.Local's one eviction rule; /v1/caps' write side from the store), net of Local's sync counters and train's sync line: -68 / -63. It pays 68 / 63 of the +167 / +67 owed; ROADMAP item 2's write merge carries the rest, +99 / +4.
LOC_CEILING = 9633
LOC_CEILING_ALL = 23355
loc:
	@find internal/storage internal/core -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
loc-gate:
	@set -- $$($(MAKE) -s loc); \
	echo "loc-gate: $$1 non-test lines in internal/storage + internal/core (ceiling $(LOC_CEILING)), $$2 in internal/ + cmd/ (ceiling $(LOC_CEILING_ALL))"; \
	[ "$$1" -le $(LOC_CEILING) ] && [ "$$2" -le $(LOC_CEILING_ALL) ]
