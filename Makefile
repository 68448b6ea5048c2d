# Build, test and benchmark-trajectory targets. The bench targets
# snapshot the perf of the three hot paths — walk generation, CBOW
# training and top-k vector search — into BENCH_<date>.json so every
# future PR has a baseline to diff against (see cmd/benchjson); the
# loadgen targets snapshot serving latency the same way.

GO      ?= go
DATE    := $(shell date -u +%Y-%m-%d)
BENCH_OUT ?= BENCH_$(DATE).json
LOADGEN_OUT ?= LOADGEN_$(DATE).json
LOADGEN_HNSW_OUT ?= LOADGEN_HNSW_$(DATE).json
SWEEP_OUT ?= SWEEP_$(DATE).json
HNSW_OUT ?= hnsw-recall.json

# One representative benchmark per pipeline stage plus the full query
# matrix; keep this pattern in sync with docs/VECTORS.md.
BENCH_PATTERN ?= BenchmarkGenerateUniform$$|BenchmarkTrainCBOWNegSampling$$|BenchmarkTrainPipelineShape$$|BenchmarkF32(Dot|SqDist|Add|Update)$$|BenchmarkBuildHNSW$$|BenchmarkSearch|BenchmarkPredictScaling|BenchmarkPredictCosine$$
BENCH_PKGS    ?= ./internal/walk ./internal/word2vec ./internal/f32 ./internal/vecstore ./internal/knn

.PHONY: build test race vet purego bench bench-short serve-smoke router-smoke crash-smoke crash-smoke-short \
	crash-smoke-sharded wal-fuzz loadgen-bench loadgen-short \
	loadgen-write loadgen-write-short loadgen-sharded loadgen-sweep loadgen-sweep-short \
	hnsw-recall hnsw-recall-full \
	hnsw-recall-incr hnsw-recall-incr-full hnsw-recall-sharded loadgen-hnsw clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The portable side of the float32 kernels: the purego tag swaps the
# AVX2/FMA assembly for the scalar loops (the seed's training
# numerics, and HNSW routing on the scalar kernels), and the arm64
# cross build proves every non-amd64 target still compiles.
purego:
	$(GO) test -tags purego ./internal/f32/ ./internal/word2vec/ ./internal/vecstore/
	GOARCH=arm64 $(GO) build ./...

race:
	$(GO) test -race ./internal/walk/... ./internal/word2vec/... \
		./internal/knn/... ./internal/linkpred/... ./internal/vecstore/... \
		./internal/server/... ./internal/snapshot/... ./internal/loadgen/... \
		./internal/wal/...

# End-to-end serving smoke tests: builds the v2v binary, serves a
# snapshot on a random port, issues one query per endpoint — including
# a hot reload, /v1/upsert and /v1/delete (visibility without reload,
# 404 after delete) — scrapes and validates the /metrics exposition,
# and asserts a clean SIGTERM shutdown; plus the live-reload
# shape-mismatch test (clean 400, previous generation keeps serving).
# Set METRICS_SNAPSHOT_OUT to save the scraped /metrics page (CI
# uploads it as an artifact).
METRICS_SNAPSHOT_OUT ?=
serve-smoke:
	METRICS_SNAPSHOT_OUT=$(METRICS_SNAPSHOT_OUT) $(GO) test -run 'TestServeSmokeE2E|TestReloadShapeMismatchKeepsServing|TestOverloadSheddingE2E|TestLoadgenSweepE2E' -count 1 -v .

# Distributed serving smoke: builds the real binary, spawns four
# shard processes plus a scatter-gather router over them, and requires
# every read endpoint to answer byte-for-byte identically to an
# in-process `-shards 4` server on the same bundle; then SIGKILLs one
# shard and asserts the documented degraded behavior (503 naming the
# outage, fast — never a hang — with membership visible in /stats and
# /metrics). Set ROUTER_SMOKE_OUT to save the fleet's combined log
# (CI uploads it as an artifact).
ROUTER_SMOKE_OUT ?=
router-smoke:
	ROUTER_SMOKE_OUT=$(ROUTER_SMOKE_OUT) $(GO) test -run TestRouterSmokeE2E -count 1 -v .

# Crash-recovery fault-injection e2e: builds the real binary, serves a
# snapshot with -wal, SIGKILLs the process in the middle of a mixed
# 15%-write load run, restarts over the same directory and fails if
# any acknowledged write was lost. Writes a machine-readable recovery
# report to CRASH_REPORT_OUT when set (CI uploads it as an artifact).
CRASH_REPORT_OUT ?=
crash-smoke:
	CRASH_REPORT_OUT=$(CRASH_REPORT_OUT) $(GO) test -run TestCrashRecoveryE2E -count 1 -v .

crash-smoke-short:
	CRASH_REPORT_OUT=$(CRASH_REPORT_OUT) $(GO) test -short -run 'TestCrashRecoveryE2E$$' -count 1 -v .

# Same fault-injection run against a 4-shard serving generation:
# SIGKILL mid-load, restart, and prove deterministic hash routing puts
# every acknowledged write back in the shard it was served from.
crash-smoke-sharded:
	$(GO) test -short -run TestShardedCrashRecoveryE2E -count 1 -v .

# WAL replay fuzz smoke: a short bounded -fuzz run over the frame
# decoder (the corpus seeds cover the torn/corrupt taxonomy; the fuzz
# engine mutates from there). CI runs this on every push — crashes
# land in internal/wal/testdata/fuzz for reproduction.
FUZZTIME ?= 15s
wal-fuzz:
	$(GO) test -run FuzzWALReplay -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal

# Full trajectory snapshot (minutes; run before publishing perf claims).
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -date $(DATE) > $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# Scaled-down snapshot for CI (testing.Short sizes, one iteration).
bench-short:
	$(GO) test -short -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -benchmem $(BENCH_PKGS) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -date $(DATE) > $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# Serving-latency snapshot: loadgen against an in-process server over
# a synthetic 10k x 64 model (exact index, cache covering the vocab,
# one warm-up pass), neighbors-heavy mix. Writes LOADGEN_<date>.json
# in the same trajectory format as BENCH_<date>.json.
loadgen-bench:
	$(GO) run ./cmd/loadgen -selfserve -vectors 10000 -dim 64 -cache 16384 \
		-warmup 1 -duration 10s -workers 8 \
		-mix 'neighbors=0.85,similarity=0.05,predict=0.05,neighbors-batch=0.05' \
		-out $(LOADGEN_OUT)
	@echo wrote $(LOADGEN_OUT)

# HNSW quality gate: deterministic store, recall@10 vs the exact
# index, single-core qps for both. The CI job runs the small store;
# hnsw-recall-full is the acceptance configuration (100k x 128,
# recall >= 0.95 at >= 5x exact single-core qps) whose numbers are
# quoted in docs/INDEXES.md.
hnsw-recall:
	$(GO) run ./cmd/hnswrecall -n 20000 -dim 64 -queries 200 -min-recall 0.95 -out $(HNSW_OUT)
	@echo wrote $(HNSW_OUT)

hnsw-recall-full:
	$(GO) run ./cmd/hnswrecall -n 100000 -dim 128 -queries 500 -min-recall 0.95 -min-speedup 5 -out $(HNSW_OUT)
	@echo wrote $(HNSW_OUT)

# Incremental-insert quality gate: half the rows enter the graph
# through MutableIndex.Insert (the online-upsert path) instead of the
# batch build; recall@10 must hold the same floor. The -full variant
# is the ISSUE 5 acceptance run quoted in docs/INDEXES.md.
hnsw-recall-incr:
	$(GO) run ./cmd/hnswrecall -n 20000 -dim 64 -queries 200 -incremental 0.5 -min-recall 0.95 -out $(HNSW_OUT)
	@echo wrote $(HNSW_OUT)

hnsw-recall-incr-full:
	$(GO) run ./cmd/hnswrecall -n 100000 -dim 128 -queries 500 -incremental 0.5 -min-recall 0.95 -out $(HNSW_OUT)
	@echo wrote $(HNSW_OUT)

# Serving-latency snapshot through the HNSW index: identical harness
# to loadgen-bench with the selfserve server behind `-index hnsw`.
# Separate default output so the exact-baseline and HNSW trajectories
# never overwrite each other.
loadgen-hnsw:
	$(GO) run ./cmd/loadgen -selfserve -vectors 10000 -dim 64 -cache 16384 \
		-index hnsw -warmup 1 -duration 10s -workers 8 \
		-mix 'neighbors=0.85,similarity=0.05,predict=0.05,neighbors-batch=0.05' \
		-out $(LOADGEN_HNSW_OUT)
	@echo wrote $(LOADGEN_HNSW_OUT)

# Mixed read/write serving snapshot: 15% of operations are
# /v1/upsert//v1/delete writes against the live index (no reloads).
# The acceptance bar is zero errors; the numbers land in
# LOADGEN_<date>.json alongside the read-only trajectories.
loadgen-write:
	$(GO) run ./cmd/loadgen -selfserve -vectors 10000 -dim 64 -cache 16384 \
		-warmup 1 -duration 10s -workers 8 -write-fraction 0.15 \
		-mix 'neighbors=0.85,similarity=0.05,predict=0.05,neighbors-batch=0.05' \
		-out $(LOADGEN_OUT)
	@echo wrote $(LOADGEN_OUT)

loadgen-write-short:
	$(GO) run ./cmd/loadgen -selfserve -vectors 2000 -dim 32 -cache 4096 \
		-warmup 1 -duration 2s -workers 4 -write-fraction 0.15 \
		-mix 'neighbors=0.85,similarity=0.05,predict=0.05,neighbors-batch=0.05' \
		-out $(LOADGEN_OUT)
	@echo wrote $(LOADGEN_OUT)

# Sharded serving smoke: the loadgen-write mix against a 4-shard
# scatter-gather generation (routed writes, fan-out reads, per-shard
# compaction — zero errors is the bar). CI runs this on every push;
# the full-size variant regenerates the LOADGEN_<date>.json sharded
# rows quoted in docs/SERVING.md.
loadgen-sharded:
	$(GO) run ./cmd/loadgen -selfserve -vectors 2000 -dim 32 -cache 4096 \
		-shards 4 -warmup 1 -duration 2s -workers 4 -write-fraction 0.15 \
		-mix 'neighbors=0.85,similarity=0.05,predict=0.05,neighbors-batch=0.05' \
		-out $(LOADGEN_OUT)
	@echo wrote $(LOADGEN_OUT)

# Sharded HNSW quality gate: recall@10 and qps through the 8-shard
# scatter-gather coordinator vs the exact index on the acceptance
# store (100k x 128 clustered).
hnsw-recall-sharded:
	$(GO) run ./cmd/hnswrecall -n 100000 -dim 128 -queries 500 -shards 8 \
		-min-recall 0.95 -out $(HNSW_OUT)
	@echo wrote $(HNSW_OUT)

# Offered-QPS sweep: step the rate up a ladder against the in-process
# server and locate the latency knee (first step whose p99 blows past
# 3x the low-load baseline, or whose requests fail). One BENCH-schema
# row per step plus the SweepKnee row land in SWEEP_<date>.json — the
# committed capacity trajectory the overload docs quote.
loadgen-sweep:
	$(GO) run ./cmd/loadgen -selfserve -vectors 10000 -dim 64 -cache 16384 \
		-warmup 1 -duration 5s -workers 8 \
		-sweep 500,1000,2000,4000,8000,16000,32000 \
		-out $(SWEEP_OUT)
	@echo wrote $(SWEEP_OUT)

# Scaled-down sweep for CI: a short ladder, enough to prove the sweep
# machinery and the JSON shape on every push.
loadgen-sweep-short:
	$(GO) run ./cmd/loadgen -selfserve -vectors 2000 -dim 32 -cache 4096 \
		-warmup 1 -duration 2s -workers 4 \
		-sweep 500,1000,2000,4000 \
		-out $(SWEEP_OUT)
	@echo wrote $(SWEEP_OUT)

# Scaled-down serving snapshot for CI.
loadgen-short:
	$(GO) run ./cmd/loadgen -selfserve -vectors 2000 -dim 32 -cache 4096 \
		-warmup 1 -duration 2s -workers 4 \
		-mix 'neighbors=0.85,similarity=0.05,predict=0.05,neighbors-batch=0.05' \
		-out $(LOADGEN_OUT)
	@echo wrote $(LOADGEN_OUT)

clean:
	rm -f BENCH_*.json LOADGEN_*.json LOADGEN_HNSW_*.json SWEEP_*.json hnsw-recall*.json
