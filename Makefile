GO ?= go

.PHONY: all check build fmt vet vet-concurrency test race chaos chaos-quick fuzz kernel-bench experiments examples cover scrub outputs clean

all: build vet test

# check is the full pre-commit gate: compile, gofmt, vet, tests (among them the
# exact cost-model counters of TestCostModelCounters and a quick pass of
# every benchmark workload with its correctness gates), the
# concurrency-heavy packages (the async I/O pipeline, transports and the
# SPMD driver) under the race detector, the quick self-healing subset, and
# the runnable examples, which no test runs, and one iteration of every
# split-kernel benchmark.
check: build fmt vet test race chaos-quick examples kernel-bench

build:
	$(GO) build ./...

# fmt fails when any Go file differs from gofmt's output, and names it.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The ooc and comm/tcp tests enable the pipeline (read-ahead/write-behind
# goroutines and the per-tag receive queues), the fault tests drive the
# deterministic injector from concurrent ranks, the serve tests drive
# the hot-swap registry and batching engine under concurrent clients, and
# the pclouds/clouds tests run every split-finding protocol (sse, hist,
# vote) across concurrent simulated ranks, and one compiled tree is shared
# read-only by every serving engine worker across registry swaps, and the
# notify watches hand wakes from their reader goroutines to the registry
# and the stream tail, so every build exercises the concurrency under the
# race detector.
race: vet-concurrency
	$(GO) test -race ./internal/ooc/... ./internal/comm/... ./internal/fault/... ./internal/pclouds/... ./internal/clouds/... ./internal/serve/... ./internal/driver/... ./internal/stream/... ./internal/record/... ./internal/scrub/... ./internal/durable/... ./internal/tree/... ./internal/metrics/... ./internal/cli/... ./internal/notify/...

vet-concurrency:
	$(GO) vet ./internal/ooc/... ./internal/comm/tcp/... ./internal/fault/... ./internal/pclouds/... ./internal/clouds/... ./internal/serve/... ./internal/driver/... ./internal/stream/... ./internal/record/... ./internal/scrub/... ./internal/durable/... ./internal/tree/... ./internal/metrics/... ./internal/cli/... ./internal/notify/...

# Fault-injection acceptance suite: killed/wedged ranks, dropped and
# corrupted frames, slow and failing storage — every scenario must end in
# either full recovery (bit-identical tree) or a clean attributed error
# within the detection deadline, never a hang. Run under the race detector
# because fault paths are where the detector earns its keep.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/pclouds/
	$(GO) test -race ./internal/fault/... ./internal/comm/tcp/... ./internal/driver/... ./internal/stream/... ./internal/durable/...
	$(GO) test -race -run 'TestCheckpoint|TestResume|TestWriteBehind|TestPrefetch' ./internal/pclouds/ ./internal/fault/ ./internal/ooc/
	$(GO) test -race -run 'TestDrift|TestStationary|TestCorruptPublish' -v ./internal/stream/
	$(GO) test -race -run 'TestRegistryQuarantines|TestRegistryRollback|TestRegistrySingleFile' ./internal/serve/
	$(GO) test -race -run 'TestCorruptionDetected' -v ./internal/pclouds/
	$(GO) test -race -run 'TestTailV2|TestCheckpointEveryBitFlip|TestCheckpointSourceBinding' ./internal/stream/
	$(GO) test -race ./internal/scrub/

# chaos-quick is the self-healing subset that gates every commit: the
# supervised kill-and-respawn acceptance test, the peer protocol's order
# table, hello verdicts and fuzz seeds (pure, deterministic, seconds),
# generation fencing, the
# checkpoint GC, resume-policy and end-of-build vote tests of the batch
# build, the resume agreement and degraded-mode retention of the streaming
# engine, the registry's and the stream tail's wake on file events, and
# the ooc page
# lifecycle with poisoned pages (the prefetch and write-behind goroutines
# give pages back across goroutines), and the resident-against-streamed
# differential (resident ranks split presorted columns through one scratch
# per rank while streaming ranks take and return pool pages in the same
# process), under the race detector with a tight overall deadline
# so a hang fails fast instead of eating the gate.
chaos-quick: vet
	$(GO) test -race -timeout 300s -run 'TestSupervised|TestRunRank|TestSupervise' ./internal/driver/
	$(GO) test -race -timeout 300s ./internal/comm/peer/
	$(GO) test -race -timeout 300s -run 'TestGeneration|TestDoorman|TestStale' ./internal/comm/tcp/
	$(GO) test -race -timeout 300s -run 'TestCheckpointGC|TestDegraded|TestResume|TestChaosFinalExchange' ./internal/pclouds/
	$(GO) test -race -timeout 300s -run 'TestResume|TestDegraded|TestTailWake' ./internal/stream/
	$(GO) test -race -timeout 300s -run 'TestRegistryWatch' ./internal/serve/
	$(GO) test -race -timeout 300s -run 'TestPage|TestPoison|TestPipeline|TestWriteBehind|TestPrefetch|TestIntegrity' ./internal/ooc/
	$(GO) test -race -timeout 300s -run 'TestPipelineParityFileBackend|TestFileCreatesCounted|TestResidentMatchesStreamed|TestCorruptionDetectedAttributed' ./internal/pclouds/

# Short fuzz passes over every fuzz target in the tree, found by name — a
# new target is picked up without touching this file. Two kinds today.
# Differential kernel targets, where a fast path must equal its reference:
# histogram.Locate against sort.SearchFloat64s, the compiled tree against
# the pointer walk (every row must reach the same leaf), the presorted
# builder against the per-node sort (same tree bytes, same stats), resident
# ranks against streamed builds (same tree bytes, traffic and counts), and
# the stream frontier's sort-once cuts against per-leaf sorts (same cut
# bits), and the stream's kept sorted reservoir columns against a fresh
# sort after every admission. Decoder
# targets, where garbage must error and accepted bytes must re-encode
# identically: the tree and model-file decoders, the prediction-server
# request decoders (malformed JSON/binary rows must get a 4xx, never a
# panic), the v2 record-block decoder (corrupt blocks must fail their CRC,
# never decode silently), the wire frame reader, the ooc frame-stream
# verifier, the stream window checkpoint and peer sample-block decoders
# (a sample record outside the schema must be refused), the batch
# partial-tree and
# level-manifest checkpoint decoders, and the level-batched point-bucket,
# alive-descriptor and candidate-vector decoders of the parallel build.
fuzz:
	@set -e; \
	for file in $$(grep -rlE '^func Fuzz[A-Za-z0-9_]*\(f \*testing\.F\)' --include='*_test.go' internal); do \
		for target in $$(sed -nE 's/^func (Fuzz[A-Za-z0-9_]*)\(f \*testing\.F\).*/\1/p' $$file); do \
			echo "fuzz ./$$(dirname $$file) $$target"; \
			$(GO) test -run='^$$' -fuzz="^$$target\$$" -fuzztime=10s ./$$(dirname $$file); \
		done; \
	done

# One iteration of each split-kernel benchmark (the exact search, the
# resident partition, the point sort, the batched statistics count and the
# two streamed passes: partition and alive collection) and of the stream
# engine's window close (frontier and growth, and the steady-state close
# with the reservoir admission, on one rank and on two channel ranks) and
# its steady-state block ingest (one and two ranks), so every kernel
# benchmark compiles and runs on every commit.
kernel-bench:
	$(GO) test -run '^$$' -bench 'EvaluateSorted|PresortedSplit|SortPoints|NodeStatsAddBatch|Partition|AliveCollect' -benchtime 1x ./internal/clouds/
	$(GO) test -run '^$$' -bench 'WindowClose|WindowCloseSteady|WindowCloseSteadyP2|IngestWindow' -benchtime 1x -benchmem ./internal/stream/

# Offline integrity scrub: verify every checksum in the artifact
# directories named by SCRUB_PATHS (out-of-core stores, checkpoint trees,
# model registries, record files). Nonzero exit on any corrupt file.
SCRUB_PATHS ?= .
scrub:
	$(GO) run ./cmd/pcloudsscrub $(SCRUB_PATHS)

cover:
	$(GO) test -cover ./...

# Regenerate every table/figure/ablation of the paper (scaled sizes).
experiments:
	$(GO) run ./cmd/experiments -exp all

examples:
	$(GO) run ./examples/distributed
	$(GO) run ./examples/customschema

# The capture files referenced by EXPERIMENTS.md.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt
