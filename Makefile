GO ?= go

# Tier-1 benchmarks: the event-engine microbenches plus one end-to-end
# figure sweep. `make bench` records them in BENCH_4.json (preserving
# the checked-in pre-optimization baseline section).
BENCH_PATTERN = ^(BenchmarkEngineThroughput|BenchmarkEngineThroughput16K|BenchmarkSchedDispatch|BenchmarkTimerFire|BenchmarkTimerCancel|BenchmarkSleep|BenchmarkFabricDelivery|BenchmarkFig4aQP64)$$
BENCH_PKGS = . ./internal/sim ./internal/fabric ./internal/rnic

# Cutover-mode benchmarks: the go-back-N vs plug-and-forward contrast
# (p99, retransmissions, wire bytes). `make bench-cutover` records them
# in BENCH_6.json.
BENCH6_PATTERN = ^(BenchmarkCutoverGoBackN|BenchmarkCutoverPlugForward)$$

# Parallel-engine benchmarks: the shard-ring engine and the Fig. 4(a)
# sweep fan-out at workers 1 vs 8, plus the cutover pair re-recorded
# with replica seeds (median across iterations). `make bench-parallel`
# records them in BENCH_7.json. The Seq/Parallel8 ns/op ratio is the
# fan-out speedup and scales with available cores.
BENCH7_PATTERN = ^(BenchmarkShardRingWorkers1|BenchmarkShardRingWorkers8|BenchmarkFig4aSweepSeq|BenchmarkFig4aSweepParallel8|BenchmarkCutoverGoBackN|BenchmarkCutoverPlugForward)$$
BENCH7_PKGS = . ./internal/sim

# Tenancy benchmarks: migrate a container carrying hundreds to
# thousands of multiplexed tenant sessions through both cutover modes
# (blackout, RDMA replay, image pages, acked ops). `make bench-tenancy`
# records the scaling sweep in BENCH_8.json.
BENCH8_PATTERN = ^(BenchmarkTenancySessions250|BenchmarkTenancySessions1000|BenchmarkTenancySessions2000|BenchmarkTenancyPlugForward2000)$$

# Transfer-pipeline benchmarks: monolithic vs pipelined page channel at
# the Fig. 4(a) message sizes (blackout, stop-and-copy wire bytes,
# elided pages) plus the 2000-session tenancy point under both transfer
# modes. `make bench-pagechan` records the contrast in BENCH_9.json.
BENCH9_PATTERN = ^(BenchmarkPageChanMono2K|BenchmarkPageChanPipe2K|BenchmarkPageChanMono8K|BenchmarkPageChanPipe8K|BenchmarkPageChanMono32K|BenchmarkPageChanPipe32K|BenchmarkTenancyTransferMono2000|BenchmarkTenancyTransferPipe2000)$$

# Rack-drain benchmarks: orchestrated 32-of-128-host evacuation on the
# two-tier fabric, same-rack vs cross-rack placement × MaxParallel 1
# vs 8 (blackout percentiles, drain window, spine bytes).
# `make bench-drain` records the contrast in BENCH_10.json.
BENCH10_PATTERN = ^(BenchmarkDrainSameRackPar1|BenchmarkDrainSameRackPar8|BenchmarkDrainCrossRackPar1|BenchmarkDrainCrossRackPar8)$$

.PHONY: all build vet test test-race chaos chaos-abort chaos-plug chaos-tenant chaos-pagechan chaos-drain fuzz check bench bench-smoke bench-cutover bench-parallel bench-tenancy bench-pagechan bench-drain trajectory canonbench canonbench-test

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Deterministic chaos sweep: every fault schedule in the library × 32
# seeds, with invariant checking, plus the workers-matrix golden
# equivalence gate (all 75 golden scenarios at workers 1/2/4/8 must
# reproduce the checked-in hashes byte for byte). Replay a failure with
#   go run ./cmd/migrchaos -schedule <name> -seed <n> -v
chaos:
	$(GO) run ./cmd/migrchaos -seeds 32 -parallel 4
	$(GO) test ./internal/chaos -run TestParallelGoldenEquivalence

# Fail-and-recover sweep under the race detector: inject a hard fault at
# every abortable workflow phase × 8 seeds and assert the cluster rolls
# back cleanly (source resumes, partners un-suspend, no staging left).
# Replay a failure with
#   go run ./cmd/migrchaos -abort-at <phase> -seed <n> -v
chaos-abort:
	$(GO) run -race ./cmd/migrchaos -abort-at all -seeds 8

# Plug-and-forward tier: server migrations under the plug/forward fault
# schedules (zero-loss cutover invariants), the fail-and-recover sweep
# over the plug-mode phases, and the plug-vs-go-back-N contrast under
# the race detector. Replay a failure with
#   go run ./cmd/migrchaos -cutover plug -schedule <name> -seed <n> -v
chaos-plug:
	$(GO) run ./cmd/migrchaos -cutover plug -seeds 32
	$(GO) run ./cmd/migrchaos -cutover plug -abort-at all -seeds 8
	$(GO) test -race ./internal/chaos -run TestPlugVsGoBackN

# Tenancy tier: the multi-tenant mux's chaos schedules (session churn
# pinned to migration phases, per-tenant exactly-once/isolation
# invariants) across the golden seeds, plus the workers-matrix
# determinism replay of the tenant golden jobs. Replay a failure with
#   go test ./internal/chaos -run TestTenantSchedules -v
chaos-tenant:
	$(GO) test ./internal/chaos -run 'TestTenant'
	$(GO) test ./internal/tenant

# Pipelined-transfer tier: the page-channel fault schedules (loss,
# reorder, rate-drop across the streamed rounds, chunk-protocol
# invariants) across 32 seeds, plus the mid-chunk fail-and-recover
# sweep over every abort point. Replay a failure with
#   go run ./cmd/migrchaos -transfer pipelined -schedule <name> -seed <n> -v
#   go run ./cmd/migrchaos -transfer pipelined -abort-at <round#chunk> -seed <n> -v
chaos-pagechan:
	$(GO) run ./cmd/migrchaos -transfer pipelined -seeds 32 -parallel 4
	$(GO) run ./cmd/migrchaos -transfer pipelined -abort-at all -seeds 8 -parallel 4

# Drain-orchestrator tier: rack evacuations on the two-tier fabric under
# the drain fault schedules (uplink partition/flap mid-drain, host-cap
# conflicts, retry exhaustion, SLO pressure) across the golden seeds,
# plus the workers-matrix determinism replay of the drain golden jobs.
# Replay a failure with
#   go run ./cmd/migrchaos -drain -schedule <name> -seed <n> -v
chaos-drain:
	$(GO) run ./cmd/migrchaos -drain -seeds 32 -parallel 4
	$(GO) test ./internal/chaos -run 'TestDrain'
	$(GO) test ./internal/orchestrator

# Fuzz smoke over the wire-format decoder and the transport fault-script
# harness (go test fuzzes one target per invocation).
fuzz:
	$(GO) test ./internal/rnic -run=Fuzz -fuzz=FuzzDecodePacket -fuzztime=10s
	$(GO) test ./internal/rnic -run=Fuzz -fuzz=FuzzRCFaultScript -fuzztime=10s

# Run the tier-1 benchmarks with -benchmem and fold the results into
# BENCH_4.json. The baseline section (captured before the PR-4
# optimizations) is preserved; only "current" is rewritten.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_4.json

# Record the cutover-mode contrast in BENCH_6.json (baseline = the
# go-back-N-only numbers; "current" is rewritten on regeneration).
bench-cutover:
	$(GO) test -run '^$$' -bench '$(BENCH6_PATTERN)' . \
		| $(GO) run ./cmd/benchjson -out BENCH_6.json

# Record the parallel-engine benchmarks in BENCH_7.json. -benchtime 3x
# gives the cutover pair three replica seeds per mode (the reported row
# is the median by p99) and the sweeps three timed repetitions.
bench-parallel:
	$(GO) test -run '^$$' -bench '$(BENCH7_PATTERN)' -benchtime 3x $(BENCH7_PKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_7.json

# Record the tenancy scaling sweep in BENCH_8.json. -benchtime 3x gives
# each (mode, sessions) point three replica seeds; the reported row is
# the median by blackout.
bench-tenancy:
	$(GO) test -run '^$$' -bench '$(BENCH8_PATTERN)' -benchtime 3x -timeout 30m . \
		| $(GO) run ./cmd/benchjson -out BENCH_8.json

# Record the transfer-pipeline contrast in BENCH_9.json. -benchtime 3x
# gives each (transfer, size) point three replica seeds; the reported
# row is the median by blackout.
bench-pagechan:
	$(GO) test -run '^$$' -bench '$(BENCH9_PATTERN)' -benchtime 3x -timeout 30m . \
		| $(GO) run ./cmd/benchjson -out BENCH_9.json

# Record the rack-drain contrast in BENCH_10.json. -benchtime 3x gives
# each (placement, MaxParallel) point three replica seeds; the reported
# row is the median by p99 blackout.
bench-drain:
	$(GO) test -run '^$$' -bench '$(BENCH10_PATTERN)' -benchtime 3x -timeout 30m . \
		| $(GO) run ./cmd/benchjson -out BENCH_10.json

# The canonical migration benchmark (canonbench/): each workload runs
# whole rounds for about CANON_SECONDS of wall time at CANON_SEED and
# prints its end-to-end metrics as one JSON line. Pass CANON_TRACE=1
# for the per-layer ledger instead.
CANON_WORKLOADS = linerate-pingpong tenant-pingpong rack-drain
CANON_SEED ?= 1
CANON_SECONDS ?= 35
CANON_TRACE ?= 0

canonbench:
	for w in $(CANON_WORKLOADS); do \
		bash canonbench/run.sh --workload $$w --seed $(CANON_SEED) \
			--seconds $(CANON_SECONDS) --trace $(CANON_TRACE) || exit 1; \
	done

# The benchmark module's own tests (round determinism, ledger in step
# with BENCHMARK.json). It is a separate Go module, so the root
# `go test ./...` does not reach it.
canonbench-test:
	cd canonbench && $(GO) test -short ./...

# Render the cross-PR perf trajectory: current/baseline deltas from
# every checked-in BENCH_*.json, one column per file.
trajectory:
	$(GO) run ./cmd/benchjson -trajectory

# One-iteration smoke over the same benchmarks: catches bench rot
# (compile errors, setup panics) without timing flakiness. CI runs this.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x $(BENCH_PKGS)
	$(GO) test -run '^$$' -bench '$(BENCH6_PATTERN)' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^(BenchmarkTenancySessions250|BenchmarkPageChanPipe2K|BenchmarkDrainSameRackPar8)$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkGatewayPump$$' -benchtime 1x ./internal/tenant

check: vet test canonbench-test bench-smoke chaos chaos-plug chaos-tenant chaos-pagechan chaos-drain fuzz test-race
