GO ?= go

.PHONY: build test test-race test-race-rest test-full test-snapshot test-loose-sync bench \
	e2e e2e-distributed e2e-coordinator-restart fuzz-smoke fmt-check serve worker vet vulncheck \
	validate-examples scenario-golden service-lines model-lines deadcode profile-msi profile-mesh profile-mesh8 profile-serve

build:
	$(GO) build ./...

# Fast CI gate: shrunk experiment shapes, < 2 minutes on a small host.
test:
	$(GO) test -short ./...

# Race-clean gate over the same short suite. The generous timeout is for
# single-core hosts, where race instrumentation is ~10x.
test-race:
	$(GO) test -short -race -timeout 30m ./...

# The paper-shape suite (tier-1 verify): full CI-scale windows.
test-full:
	$(GO) test ./...

# The snapshot-determinism test set: the golden round-trip harness
# (every frontend × 2 worker counts × snapshot cycles in short mode; 3
# worker counts without -short), the section-corruption tests, the
# MIPS/mem warmup-cache reuse proof, the killed-daemon resume drill, and
# the container fuzz seed corpora.
SNAPSHOT_TESTS := TestSnapshotRoundTrip|TestSnapshotSectionCorruption|TestSnapshotMIPSRunsToCompletion|TestWarmupCacheMIPSSharedMem|TestMipsCheckpointResumeAfterRestart|Fuzz

# Snapshot-determinism gate, isolated so a checkpoint/restore regression
# is visible apart from the general suite — all under the race detector.
test-snapshot:
	$(GO) test -short -race -timeout 20m -count=1 \
		-run '$(SNAPSHOT_TESTS)' \
		./internal/core ./internal/snapshot ./internal/service

# The race gate minus the snapshot set: CI runs test-snapshot first and
# this second, so the heaviest tests are not raced twice per run while
# local `make test-race` stays a single complete gate.
test-race-rest:
	$(GO) test -short -race -timeout 30m -skip '$(SNAPSHOT_TESTS)' ./...

# The cross-thread data path at full length under the race detector:
# loose synchronization (several workers, sync_period > 1) over 20k
# cycles with exact flit conservation, the lock-free VC buffer's
# two-goroutine stress test (wrappers and in-place slot primitives), the
# producer-side credit word — which a consumer on another thread stores,
# with the cycle that committed it, so that a cycle runs on one barrier —
# after commits and restores in either order, the credit rule itself (a
# credit committed in a cycle is usable from the next, and stays so when
# nothing pops, across a restore and fast-forward jumps, past 2^32 cycles
# too; a VC parked in the cycle its credit commits wakes), restores of
# snapshots taken with VCs blocked on that credit,
# the per-router occupancy mask — which the neighbours' threads set, by
# pushes and by credits, and the owner clears, when a buffer empties and
# when it parks a VC on a credit — against the buffers and the parked VCs
# at every cycle boundary, over fixed and bandwidth-adaptive links (whose
# routers park too), after restores,
# with its 10^6-flit set-while-clearing stresses (the SPSC test's mask and
# park subtests), a line of free-running routers and a past-saturation 8x8
# mesh that must drain with no VC left asleep beside an available credit
# (sync_period 1, 5, 50), a restore of that mesh mid-saturation, the exact
# generator skip an idle router relies on, the snapshot bytes of 30
# machines against the ones recorded before the mask existed, engine-worker
# panic containment, one barrier generation per synchronization chunk, a
# busy 4x4 mesh, fixed and bidirectional, on 2 to 4 workers whose first
# partition starts every cycle only after the last one has committed it,
# held to one worker, the barrier's polling, parking and break paths,
# the shared route store: two goroutines creating every flow of an 8x8
# O1TURN mesh at once, which must get pointer-identical lines, and a
# router's lock-free resolution of the line numbers flits carry while
# another node's lookups grow the store, and the
# bandwidth-adaptive link's parity cell, which one engine thread writes and
# another reads: bidirectional machines at sync_period 5 and 50, a busy
# bidirectional mesh on 3 workers held to 1 worker tile by tile and link by
# link, 4 workers through the service driver, and 2-, 3- and 4-way splits
# (the engine workers a `shards: N` run asks for) held to one worker, run
# whole, in 7-cycle chunks and autosaving every 13 cycles, and 2-way
# splits of the machines that join one pair of routers by two links (a
# 2-node ring, two-wide tori), and the payload
# ring, a new cross-thread path, where the producer writes the slot and the
# consumer takes it: payload-bearing packets through a congested line on 1
# and 3 workers at sync_period 1 and 5, each delivered once with its own
# payload, and a mid-flight snapshot that restores to the same bytes.
# The per-packet state a router keeps, stepped the same ways: a source's
# queued packets of several flows, numbered only as they start streaming,
# a payload-bearing packet mid-stream, kept as its head flit and its
# flits' injection cycles, and packets mid-reassembly, snapshotted and
# restored to the same bytes, then run on to the uninterrupted run's
# bytes and Summary digest; numbers no router could write are corrupt.
# Work stealing, where a tile changes worker at the barrier: a span whose
# first tile waits for its last chunk, which only a thief can step, on 2-4
# workers, and a hotspot 8x8 mesh on 1-4 workers held to one worker's
# Summary and snapshot bytes.
# Machine telemetry, which the barrier leader samples through the run's
# stop predicate, reading every tile's counters and buffer occupancy
# while the other workers are parked: a fast-forwarding trace machine and
# busy ones at sync_period 1 and 8, on 1 and 2 workers, whole and in
# chunks.
# The short race gate runs the same tests over shorter windows.
test-loose-sync:
	$(GO) test -race -count=1 -timeout 20m \
		-run 'TestLooseSyncConservesFlits|TestVCBufferConcurrentSPSC|TestCredit|TestOccupancyMaskTracksBuffers|TestRNGSkipMatchesDraws|TestSnapshotBytesGolden|TestSnapshotRoundTripDerivedRouterState|TestSnapshotRoundTripParkedVCs|TestParkedRouterIsIdle|TestEngineContainsTilePanic|TestEngineStealsSlowSpan|TestStolenChunksMatchOneWorker|TestEngineOneBarrierPerChunk|TestSkewedWorkersMatchOneWorker|TestBarrier|TestRouteStoreConcurrent|TestLinkArbiterReadsFarSideOneCycleLate|TestFirstDivergenceBidirectionalWorkers|TestBidirectionalUsesEveryEngineWorker|TestSharded(Synthetic|DoubleLink)ByteIdentity|TestShardedLocal(Synthetic|Checkpointed)ByteIdentity|TestPayloadRingConcurrent|TestPacketStateRoundTrip|TestTelemetrySamplesMachinePosition|TestTelemetryCadence' \
		./internal/core ./internal/noc ./internal/routing ./internal/sim ./internal/service

# One iteration of every benchmark in the repo: the root-package figure
# benchmarks plus the per-package micro-benchmarks (sweep overhead,
# engine, router, VC buffer, table lookup, ...). Blocking in CI so a
# benchmark cannot rot: a bench that panics or fails breaks the build.
# HORNET_FULL=1 switches to paper-scale parameters.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Three whole machines and the daemon under the profilers, one rule.
# profile-msi: the 4x4 MSI machine (16 busy MIPS cores, L1s, directory
# slices, one controller, the routers between them), one benchmark
# iteration = one simulated cycle after a 50 000-cycle warm-up.
# profile-mesh: the 1000-core point — 32x32 mesh, shuffle 0.02, past
# saturation, 2 engine workers — one iteration = one simulated cycle of all
# 1024 tiles after a 1 000-cycle warm-up.
# profile-mesh8: the mesh8-serial machine — 8x8 mesh, uniform 0.05, 1 engine
# worker, where noc and routing do nearly all the work — one iteration = one
# simulated cycle of all 64 tiles after a 20 000-cycle warm-up.
# profile-serve: the serve-mix daemon — durable (journal + checkpoints),
# Budget 2, behind HTTP, two closed-loop clients alternating new 4x4 jobs
# with cache hits — one iteration = one job. Prints where the CPU time goes
# (cumulative), what still allocates (by count, then by bytes: garbage that
# is freed before the end shows only in the bytes allocated, as route
# builds did), and what holds the live heap at the end (on profile-mesh:
# the injection queues and the routers' slabs); binary and profiles land
# in PROFILE_DIR, outside the repository.
PROFILE_DIR ?= /tmp/hornet-$@
PROFILE_PKG := ./internal/core
profile-msi: PROFILE_BENCH := BenchmarkMSIMachineCycle
profile-msi: PROFILE_CYCLES ?= 1000000
profile-mesh: PROFILE_BENCH := BenchmarkSaturatedMeshCycle
profile-mesh: PROFILE_CYCLES ?= 15000
profile-mesh8: PROFILE_BENCH := BenchmarkUniformMeshCycle
profile-mesh8: PROFILE_CYCLES ?= 300000
profile-serve: PROFILE_PKG := ./internal/service
profile-serve: PROFILE_BENCH := BenchmarkDurableServeMix
profile-serve: PROFILE_CYCLES ?= 2000
profile-msi profile-mesh profile-mesh8 profile-serve:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test $(PROFILE_PKG) -run '^$$' -bench $(PROFILE_BENCH) -benchtime $(PROFILE_CYCLES)x \
		-o $(PROFILE_DIR)/prof.test -outputdir $(PROFILE_DIR) -cpuprofile cpu.prof
	$(GO) tool pprof -top -cum -nodecount 40 $(PROFILE_DIR)/prof.test $(PROFILE_DIR)/cpu.prof
	@# every allocation sampled: its own run, so the sampling is not in the CPU profile
	$(PROFILE_DIR)/prof.test -test.run '^$$' -test.bench $(PROFILE_BENCH) -test.benchtime $(PROFILE_CYCLES)x \
		-test.outputdir $(PROFILE_DIR) -test.memprofile mem.prof -test.memprofilerate 1
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 40 $(PROFILE_DIR)/prof.test $(PROFILE_DIR)/mem.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 40 $(PROFILE_DIR)/prof.test $(PROFILE_DIR)/mem.prof
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount 40 $(PROFILE_DIR)/prof.test $(PROFILE_DIR)/mem.prof

# Process-level distributed drill: build the real binaries, boot a
# coordinator plus 2 workers, SIGKILL the one executing the job, and
# require checkpoint migration (resumed_runs > 0) plus a byte-identical
# document. Opt-in via HORNET_E2E so the hermetic suite stays fast.
e2e-distributed:
	HORNET_E2E=1 $(GO) test -count=1 -timeout 15m -v -run TestDistributedFleetE2E ./e2e

# Process-level durable-coordinator drill: journaled coordinator + 3
# workers, SIGKILL the COORDINATOR mid-run, restart it against the same
# -journal-dir, and require the in-flight job to reattach and complete
# (resumed_runs > 0, byte-identical document) — for a plain fleet job
# and a `shards: 2` one. On failure the replayed journal lands in
# HORNET_E2E_ARTIFACTS.
e2e-coordinator-restart:
	HORNET_E2E=1 $(GO) test -count=1 -timeout 15m -v -run TestCoordinatorRestartE2E ./e2e

# Both SIGKILL drills: the proof obligations of any change to how the
# service executes, checkpoints or journals a run.
e2e: e2e-distributed e2e-coordinator-restart

# Non-test lines in the service tree (ROADMAP item 5 asks for net-negative
# diffs there).
service-lines:
	@find internal/service -name '*.go' -not -name '*_test.go' | xargs cat | wc -l

# Non-test lines in the simulator model: the engine, the network, the
# tiles, routing, the memory hierarchy and the MIPS core.
model-lines:
	@find internal/sim internal/noc internal/core internal/routing internal/mem internal/mips -name '*.go' -not -name '*_test.go' | xargs cat | wc -l

# Functions under internal/ that no binary reaches (ROADMAP item 5): every
# main package (cmd/*, bench, examples/*) is linked with inlining off and
# the linker's dependency dump on, and each non-test function no dump
# names is listed with its line count; the last line is the totals.
deadcode:
	@$(GO) run ./tools/deadcode

# Fuzz smoke over the snapshot container's seed corpora, the scenario
# schema's decode→normalize→encode pipeline, which then compiles and
# builds every accepted run of at most 64 nodes, frontend attached, and
# the MIPS assembler, seeded with its all-forms source and every kernel,
# which must never panic, never build a section past its limit and
# assemble a source the same way twice (one target per invocation —
# `go test -fuzz` accepts a single target).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBytes$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzReaderPayload$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzVerify$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzScenario$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime $(FUZZTIME) ./internal/mips

# Scenario-schema golden gate: the examples/scenarios gallery matches
# the preset registry byte for byte and every normalized form is a
# stable fixed point. Regenerate the gallery after editing presets with:
#   go test ./internal/scenario -run TestExamplesMatchPresets -update
# Then the service-side identity set: every submission shape and spelling
# keeps the content address recorded for it (never re-record those), a
# scenario document coalesces with the legacy spelling it restates, and
# validate reports what submit acquires. Last, the one workload binding:
# every kernel binds to one run and hash through both spellings, and every
# rejection points at the input at fault.
scenario-golden:
	$(GO) test -count=1 -run 'TestExamples|TestNormalizeIdempotent|TestPresetsAllCompile|TestCompileKernelErrorPaths' ./internal/scenario
	$(GO) test -count=1 -run 'TestFrozenLegacyHashes|TestScenarioMipsLegacyIdentity|TestScenarioCoalescesWithLegacy|TestDryRunMatchesSubmit|TestWorkloadSpellingParity|TestScenarioErrorFieldPaths|TestMipsScenarioValidation' ./internal/service

# Dry-run every example scenario through the real validation path
# (hornet-exp -validate = the daemon's POST /api/v1/validate): the
# gallery must always be submittable as-is.
validate-examples:
	@set -e; for f in examples/scenarios/*.json; do \
		echo "validate $$f"; \
		$(GO) run ./cmd/hornet-exp -scenario $$f -validate >/dev/null; \
	done

# Formatting gate: fails listing any file gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Run the simulation-as-a-service daemon (see README: hornet-serve).
# Override flags via SERVE_FLAGS, e.g. make serve SERVE_FLAGS='-addr :9090'.
serve:
	$(GO) run ./cmd/hornet-serve $(SERVE_FLAGS)

# Join a running coordinator as a worker (distributed mode). Override
# via WORKER_FLAGS, e.g. make worker WORKER_FLAGS='-capacity 4'.
worker:
	$(GO) run ./cmd/hornet-worker $(WORKER_FLAGS)

vet:
	$(GO) vet ./...

# Known-vulnerability scan over the module graph and the reachable call
# graph. Network-dependent (downloads the vuln DB), so CI runs it in its
# own step; locally it needs internet access.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...
