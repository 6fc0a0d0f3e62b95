GO ?= go

.PHONY: check build vet test fmt deadsurface loc prodcover equiv bench bench-sim bench-smoke bench-e2e-smoke fuzz-smoke sim-smoke chaos-smoke scrub-smoke confine-smoke bootstorm-smoke scale-smoke

# check is the CI gate: build, vet (natively and for arm64, so that the
# Go-only build of internal/xts keeps compiling), race-enabled tests, gofmt
# cleanliness (fails listing the offending files), the dead-surface checker, the
# short-seed chaos suite, the
# short-seed integrity/scrub suite, the tenant-confinement suite, the
# short-seed boot-storm suite, the sharded-router scale suite and the
# end-to-end benchmark's smoke test.
check: build vet test fmt deadsurface chaos-smoke scrub-smoke confine-smoke bootstorm-smoke scale-smoke bench-e2e-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

test:
	$(GO) test -race -timeout 30m ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# deadsurface runs the dead-surface checker (deadsurface_test.go) alone and
# verbosely: per rule, its unlisted and allowlisted hit counts, then every
# allowlisted hit with its rule (an unreachable declaration with its
# length). Rules: (a) an exported internal/ identifier no other package's
# non-test code uses, (b) a setting-struct field nothing outside its package
# writes, (c) a declaration no main, init, blank declaration or root-package
# type, alias or constant reaches, (d) a field written but never read, (e)
# an exported field no file reads, tests included, (f) an internal/
# interface method no non-test file calls, through the interface or on an
# implementation, (g) a root-package function or method that no main or
# init under cmd/, examples/ or bench/ reaches. Any unlisted hit or stale
# allowlist row fails.
deadsurface:
	$(GO) test -run '^TestDeadSurface$$' -v .

# loc prints the repo's Go line counts (all lines; bench/ and the
# dead-surface fixture under testdata/ excluded), non-test
# and test apart: net-negative non-test LOC is a headline result of the
# simplification round (ROADMAP), so CHANGES.md entries cite it before/after.
# The last two lines are the non-test counts of the classifier runtime, which
# the ROADMAP holds under 3,000 lines, and of the router.
loc:
	@printf 'non-test Go lines: %s\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -not -path './testdata/*' | xargs cat | wc -l)"
	@printf 'test Go lines:     %s\n' "$$(find . -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -not -path './testdata/*' | xargs cat | wc -l)"
	@printf 'internal/ebpf non-test Go lines: %s\n' "$$(find ./internal/ebpf -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"
	@printf 'internal/core non-test Go lines: %s\n' "$$(find ./internal/core -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"

# prodcover is a gate on the functions no shipped program enters: the
# binaries under cmd/ and examples/ and the bench/ binary, built with
# coverage and run as CI and TestCLIGolden run them (scripts/prodcover.sh
# lists the runs). Every function with statements that none of them enters
# needs a classed row in testdata/prodcover.txt (error, paper, diag, bench
# or ref); an unlisted one fails, and so does a row whose function now runs.
# Not part of check (it takes ~30 s); CI runs it. It writes nothing in the
# tree.
prodcover:
	bash scripts/prodcover.sh

# equiv checks that the working tree models exactly what revision PARENT
# (default HEAD) models: every experiment's CSVs, full and quick at seeds 1
# and 3, and each bench workload's attempted, failed and model.digest at
# seeds 1, 3 and 7 (scripts/equiv.sh). It prints "identical" or the first
# differing line per item and fails on any difference. Not part of check (it
# takes about twenty minutes on 2 CPUs); it writes nothing in the tree.
PARENT ?= HEAD
equiv:
	bash scripts/equiv.sh $(PARENT)

bench:
	$(GO) test -bench=. -benchmem

# bench-sim measures the DES kernel hot paths (event queue, process switch,
# timers, resources as processes — blocked on their own continuation — and
# as AcquireFunc continuations, an interrupt handler as a WaitFunc/ExecFunc
# continuation, idle poll rounds alone and beside a second poller, by a
# process in Spin and by a continuation in SpinFunc, which are one
# implementation) with allocation counts, and what those rounds
# cost a shard per idle tenant scanned, plus the notify path's two prices:
# the host cache under uif_mix's cached op mix and one notify-path command
# end to end, and the CoW store's shared and private reads and its
# read-modify-write break; results/simbench.txt holds the snapshots.
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 300ms ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkShardIdleTenants' -benchmem -benchtime 300ms ./internal/shard/
	$(GO) test -run '^$$' -bench 'BenchmarkCacheMix' -benchmem -benchtime 300ms ./internal/cache/
	$(GO) test -run '^$$' -bench 'BenchmarkNotifyHop' -benchmem -benchtime 300ms ./internal/storfn/
	$(GO) test -run '^$$' -bench 'BenchmarkCow' -benchmem -benchtime 300ms ./internal/cow/

# bench-smoke compiles and runs every microbenchmark exactly once. It is a
# CI gate against benchmarks rotting (build or runtime failures), not a
# performance measurement; use `make bench` or `make bench-sim` for numbers.
# It also runs the callback-tier components — the device's command service,
# the guest drivers' interrupt handler and submission paths, the router
# worker, the fio job, the UIF poll loop, the NVMe-oF target and the host
# block device's submission — in lockstep with their process-based
# references, and the host cache's ARC with its list-based reference, once
# under the race detector: the hop benchmarks' events/op and switches/op
# mean what they say only while each pair stays indistinguishable.
bench-smoke:
	$(GO) test -race -run 'TestLockstepWithProcessReference' ./internal/device/
	$(GO) test -race -run 'TestIRQLockstepWithProcessReference|TestSubmitLockstepWithProcessReference' ./internal/vm/ ./internal/virtio/
	$(GO) test -race -run 'TestWorkerLockstepWithProcessReference|TestJobLockstepWithProcessReference' ./internal/core/ ./internal/fio/
	$(GO) test -race -run 'TestReactorLockstepWithProcessLoop|TestTargetLockstepWithProcess|TestSubmitFuncLockstepWithProcess|TestAwaitIsEventNeutral' ./internal/uif/ ./internal/nvmeof/ ./internal/blockdev/ ./internal/sim/
	$(GO) test -race -run 'TestARCLockstepWithReference' ./internal/cache/
	$(GO) test -run '^$$' -bench 'BenchmarkVMRun|BenchmarkCompile|BenchmarkVerifier|BenchmarkInterpreter' -benchtime 1x ./internal/ebpf/
	$(GO) test -run '^$$' -bench 'BenchmarkClassifierSuite|BenchmarkEncryptorWrite4K|BenchmarkNotifyHop' -benchtime 1x -benchmem ./internal/storfn/
	$(GO) test -run '^$$' -bench 'BenchmarkEncrypt4K|BenchmarkDecrypt4K' -benchtime 1x -benchmem ./internal/xts/
	$(GO) test -run '^$$' -bench 'BenchmarkRouterHop' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkArbiter' -benchtime 1x ./internal/qos/
	$(GO) test -run '^$$' -bench 'BenchmarkClone|BenchmarkCow' -benchtime 1x -benchmem ./internal/cow/
	$(GO) test -run '^$$' -bench 'BenchmarkShardDispatch|BenchmarkShardIdleTenants' -benchtime 1x ./internal/shard/
	$(GO) test -run '^$$' -bench 'BenchmarkGuardVerify4K' -benchtime 1x -benchmem ./internal/integrity/
	$(GO) test -run '^$$' -bench 'BenchmarkCacheMix' -benchtime 1x -benchmem ./internal/cache/
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim/

# bench-e2e-smoke runs the host-clock benchmark's own smoke test (bench/ is
# a module of its own, so `go test ./...` does not reach it): every workload
# on 1/200 of its window, untraced and traced, checked against what
# BENCHMARK.json declares. It keeps the benchmark building against the
# simulator's API; `bash bench/run.sh` is the measurement.
bench-e2e-smoke:
	$(GO) test -C bench .

# sim-smoke is the DES-kernel gate: the scheduler and harness under the
# race detector (property tests against the reference heap and, for
# Thread.Spin and SpinFunc, against the per-round poll loop included; the
# run token moves by coroutine switch, which carries the detector's
# happens-before edges, and the Goexit, Close, finished-process goroutine,
# ExecFunc/WaitFunc/WaitTimeoutFunc tests and the primitives' event-order
# golden run here too), the per-hop event/switch budget and the hand-off gate on fio-driven
# topologies (no process spawned, and none resumed on the command path:
# routed, kernel, notify and every baseline's), and the background daemons'
# gate (a mirrored, supervised, scrubbed volume through a scrub, a resync
# and a failover spawns nothing and hands nothing off) with, on the same
# volume, the scrubber finding a replica block corrupted after the failover
# without a read error. Then, without the race
# detector, whose instrumentation allocates so that every allocation
# budget skips itself under it: the allocation
# gates (the process forms' blocking primitives, the bare event queue, the
# routed and notify paths' warm commands, a router hop plain and guarded, a
# shard dispatch) and the per-tenant footprint tests (a histogram's counts,
# the backing store's pages against a flat image and its zero elision, the
# block cache's shared zero line, the cow content cache's adopted lines, the
# device's write staging pool, NVMe ring backings at their high-water mark,
# fio's packed job buffers, an allocation-free PRP list build)
# beside the primitives' golden once more, the baselines' event golden
# (MDev, QEMU, vhost-scsi plain and over dm-crypt and dm-mirror, SPDK), the
# daemons' event golden (scrub, resync and supervision scenarios at seeds 1,
# 3 and 7),
# the golden-CSV determinism check — every experiment with a checked-in quick-mode golden
# must render byte-identical output — and the published full-mode CSVs in
# results/ (Table I and the 1024-VM boot-storm and scale fleets, ~5 s
# without the race detector).
sim-smoke:
	$(GO) test -race -timeout 30m ./internal/sim/... ./internal/harness/...
	$(GO) test -race -run 'TestHopSwitchBudget' ./internal/core/
	$(GO) test -race -run 'TestNoHandOffOnCommandPath|TestDaemonsSpawnNothing|TestScrubChecksReplicaAfterFailover' ./internal/stack/
	$(GO) test -run 'Allocs$$|AllocBudget$$|TestHopSwitchBudget|TestPrimitivesTraceGolden|TestHistogramFootprint|TestMemStoreMatchesFlatReference|TestMemStoreHoldsOnlyNonZeroPages|TestZeroLinesShareOneBlock|TestCacheLinesAreIndexChunks|TestStagingPoolBoundedByWritesInFlight|TestRingBackingTracksHighWater|TestJobBuffersPackLikeIomem|TestBuildPRPZeroAlloc|TestBaselineEventGolden|TestDaemonEventGolden' ./internal/sim/ ./internal/stack/ ./internal/core/ ./internal/shard/ ./internal/metrics/ ./internal/cow/ ./internal/device/ ./internal/cache/ ./internal/nvme/ ./internal/fio/
	$(GO) test -run 'TestGoldenCSVs|TestShardedMatchesSerial|TestParallelMatchesSerial|TestResultsCSVs' ./internal/harness/

# chaos-smoke runs the UIF supervision suite under the race detector: the
# watchdog/reconcile unit tests, the per-function crash/wedge recovery
# tests and the short-seed end-to-end chaos experiment; then the payload
# plane's two safety properties — no timer keeps a completed payload
# reachable (and timeouts still fire on the instant), and nothing touches a
# request buffer after its completion is posted (every storage function,
# kill-restart included, and the notify-path goldens, with released buffers
# poisoned).
chaos-smoke:
	$(GO) test -race -run 'TestWatchdog|TestBackoff|TestHealthy|TestClassifierHotSwap' ./internal/supervise/ ./internal/nvmeof/
	$(GO) test -race -run 'TestSupervised' ./internal/storfn/
	$(GO) test -race -run 'TestChaos' ./internal/harness/
	$(GO) test -race -run 'Deadline|TestTimeoutsFire|TestResends' ./internal/sim/ ./internal/blockdev/ ./internal/nvmeof/
	$(GO) test -race -run 'TestPoisoned' ./internal/uif/

# scrub-smoke runs the end-to-end data-integrity suite under the race
# detector: PI domain/corrupting-store unit tests, the router's guard
# boundary (corrupt reads over every PRP shape, the reused staging buffer,
# no garbage per guarded hop) with the PRP walk it stages through, and the
# short-seed scrub experiment (detection, replica repair, quarantine,
# determinism, QoS contract under active scrub).
scrub-smoke:
	$(GO) test -race ./internal/integrity/
	$(GO) test -race -run 'TestGuardRejectsCorruptRead|TestGuardStagingReuse|TestGuardedHopAllocs|TestAppendPRP' ./internal/core/ ./internal/nvme/
	$(GO) test -race -run 'TestScrub' ./internal/harness/

# confine-smoke runs the tenant-isolation property under the race detector:
# hostile LBA ranges (past the end, wrapping 2^64) with every ranged opcode on
# every stack through the public facade, and the one definition of a tenant's
# extent they all go through (device.Partition).
confine-smoke:
	$(GO) test -race -run 'TestConfinementEveryStack|TestPartitionTranslate' . ./internal/device/

# scale-smoke runs the sharded-router suite under the race detector: the
# lock-free MPSC ring, the classifier runtime's tests (the verifier proves
# the static verdict promotion trusts, checked against the join-based
# reference analysis it replaced and against execution), the placement /
# promotion-fence / per-shard QoS-merge tests over core.Router (they live
# in internal/shard), and the scale experiment's any-workers determinism
# and near-linear-scaling shape checks.
scale-smoke:
	$(GO) test -race ./internal/shard/... ./internal/ebpf/
	$(GO) test -race -run 'TestScale' ./internal/harness/

# fuzz-smoke explores six targets for 30 s each beyond their seed corpora
# (which every `go test ./...` runs). FuzzVerifiedProgram: Verify accepts
# exactly what Compile accepts, and decoded bytes it accepts must run on both
# tiers without a fault, fuel or panic, the tiers must agree, and a proved
# static verdict must be what every invocation returns. FuzzAppendPRP: the
# PRP walker must not panic, must agree with its reference walk segment for
# segment and error for error, and a successful walk must stay inside guest
# memory and cover the transfer. FuzzQueueMatchesFIFO: an SQ and a CQ
# under any push/pop/peek sequence, at depths 2, 4, 128 and 6, must match a
# slice FIFO entry for entry (Head, Len, Full and the CQ phase included)
# while their backings grow to the most entries held. FuzzParseChain: the
# virtio device side must not panic on a guest-written descriptor table,
# avail head and request header, and a chain it accepts fits the queue and
# guest memory.
# FuzzXTSKernel: the AES-NI kernel, the Go kernel and the byte-wise reference
# must produce the same bytes for any key, sector run, direction and
# aliasing, and the round trip must give the input back.
# FuzzMemStoreMatchesModel: any sequence of whole-page, partial, zero and
# trim writes to a MemStore, at 512-byte and 4 KiB blocks across a
# page-table leaf seam, must read back and fingerprint (ContentCRC) as a
# flat byte image does, and the interned page set's books must balance after
# every step: references equal resident pages, no indexed entry is unheld,
# no freed entry shares a live page's buffer (under bufpool.Poison). A
# finding is written under the package's testdata/fuzz/ and replays as a
# seed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzVerifiedProgram$$' -fuzztime 30s ./internal/ebpf/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendPRP$$' -fuzztime 30s ./internal/nvme/
	$(GO) test -run '^$$' -fuzz '^FuzzQueueMatchesFIFO$$' -fuzztime 30s ./internal/nvme/
	$(GO) test -run '^$$' -fuzz '^FuzzParseChain$$' -fuzztime 30s ./internal/virtio/
	$(GO) test -run '^$$' -fuzz '^FuzzXTSKernel$$' -fuzztime 30s ./internal/xts/
	$(GO) test -run '^$$' -fuzz '^FuzzMemStoreMatchesModel$$' -fuzztime 30s ./internal/device/

# bootstorm-smoke runs the snapshot/clone suite under the race detector:
# the cow layer's model-based and property tests (page-granular private
# chunks and their break source across a cache eviction, and private pages
# interned once per distinct content across clones, shared pages never
# changed by a sub-page write and every entry released by close, included), the
# stack-level clone round trip through the router fast path, and the
# small-fleet boot-storm experiment (shared-vs-flat table, clone-cost
# flatness, determinism).
bootstorm-smoke:
	$(GO) test -race ./internal/cow/
	$(GO) test -race -run 'TestClone' ./internal/stack/
	$(GO) test -race -short -run 'TestBootStorm' ./internal/harness/
