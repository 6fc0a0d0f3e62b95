GO ?= go

.PHONY: check build vet test fmt loc bench bench-sim bench-smoke bench-e2e-smoke fuzz-smoke sim-smoke chaos-smoke scrub-smoke confine-smoke bootstorm-smoke scale-smoke

# check is the CI gate: build, vet, race-enabled tests, gofmt cleanliness
# (fails listing the offending files), the short-seed chaos suite, the
# short-seed integrity/scrub suite, the tenant-confinement suite, the
# short-seed boot-storm suite, the sharded-router scale suite and the
# end-to-end benchmark's smoke test.
check: build vet test fmt chaos-smoke scrub-smoke confine-smoke bootstorm-smoke scale-smoke bench-e2e-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race -timeout 30m ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# loc prints the repo's Go line counts (all lines, bench/ excluded), non-test
# and test apart: net-negative non-test LOC is a headline result of the
# simplification round (ROADMAP), so CHANGES.md entries cite it before/after.
# The last two lines are the non-test counts of the classifier runtime, which
# the ROADMAP holds under 3,000 lines, and of the router.
loc:
	@printf 'non-test Go lines: %s\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@printf 'test Go lines:     %s\n' "$$(find . -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@printf 'internal/ebpf non-test Go lines: %s\n' "$$(find ./internal/ebpf -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"
	@printf 'internal/core non-test Go lines: %s\n' "$$(find ./internal/core -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"

bench:
	$(GO) test -bench=. -benchmem

# bench-sim measures the DES kernel hot paths (event queue, process switch,
# timers, resources as processes and as AcquireFunc continuations, an
# interrupt handler as a WaitFunc/ExecFunc continuation, idle poll rounds
# alone and beside a second poller, by a process in Spin and by a
# continuation in SpinFunc) with allocation counts, and what those rounds
# cost a shard per idle tenant scanned; results/simbench.txt holds the
# snapshots.
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 300ms ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkShardIdleTenants' -benchmem -benchtime 300ms ./internal/shard/

# bench-smoke compiles and runs every microbenchmark exactly once. It is a
# CI gate against benchmarks rotting (build or runtime failures), not a
# performance measurement; use `make bench` or `make bench-sim` for numbers.
# It also runs the callback-tier components — the device's command service,
# the guest drivers' interrupt handler and submission paths, the router
# worker and the fio job — in lockstep with their process-based references
# once under the race detector: the hop benchmarks' events/op and
# switches/op mean what they say only while each pair stays
# indistinguishable.
bench-smoke:
	$(GO) test -race -run 'TestLockstepWithProcessReference' ./internal/device/
	$(GO) test -race -run 'TestIRQLockstepWithProcessReference|TestSubmitLockstepWithProcessReference' ./internal/vm/ ./internal/virtio/
	$(GO) test -race -run 'TestWorkerLockstepWithProcessReference|TestJobLockstepWithProcessReference' ./internal/core/ ./internal/fio/
	$(GO) test -run '^$$' -bench 'BenchmarkVMRun|BenchmarkCompile|BenchmarkVerifier|BenchmarkInterpreter' -benchtime 1x ./internal/ebpf/
	$(GO) test -run '^$$' -bench 'BenchmarkClassifierSuite|BenchmarkEncryptorWrite4K' -benchtime 1x -benchmem ./internal/storfn/
	$(GO) test -run '^$$' -bench 'BenchmarkEncrypt4K|BenchmarkDecrypt4K' -benchtime 1x -benchmem ./internal/xts/
	$(GO) test -run '^$$' -bench 'BenchmarkRouterHop' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkArbiter' -benchtime 1x ./internal/qos/
	$(GO) test -run '^$$' -bench 'BenchmarkClone|BenchmarkCow' -benchtime 1x -benchmem ./internal/cow/
	$(GO) test -run '^$$' -bench 'BenchmarkShardDispatch|BenchmarkShardIdleTenants' -benchtime 1x ./internal/shard/
	$(GO) test -run '^$$' -bench 'BenchmarkGuardVerify4K' -benchtime 1x -benchmem ./internal/integrity/
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
# happens-before edges, and the Goexit, Close and ExecFunc/WaitFunc/
# WaitTimeoutFunc tests run here too), the per-hop event/switch budget and
# the hand-off gate on fio-driven topologies (no process spawned, and none
# resumed on the routed command path), plus the golden-CSV determinism
# check — every experiment with a checked-in quick-mode golden must render
# byte-identical output.
sim-smoke:
	$(GO) test -race -timeout 30m ./internal/sim/... ./internal/harness/...
	$(GO) test -race -run 'TestHopSwitchBudget' ./internal/core/
	$(GO) test -race -run 'TestNoHandOffOnCommandPath' ./internal/stack/
	$(GO) test -run 'TestGoldenCSVs|TestShardedMatchesSerial|TestParallelMatchesSerial' ./internal/harness/

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
	$(GO) test -race -run 'Deadline|TestTimeoutsFire|TestSetRecoveryShortens|TestResends' ./internal/sim/ ./internal/blockdev/ ./internal/nvmeof/
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

# fuzz-smoke explores two targets for 30 s each beyond their seed corpora
# (which every `go test ./...` runs). FuzzVerifiedProgram: decoded bytes the
# verifier accepts must run on both tiers without a fault, fuel or panic, the
# tiers must agree, and a proved static verdict must be what every invocation
# returns. FuzzAppendPRP: the PRP walker must not panic, must agree with its
# reference walk segment for segment and error for error, and a successful
# walk must stay inside guest memory and cover the transfer. A finding is
# written under the package's testdata/fuzz/ and replays as a seed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzVerifiedProgram$$' -fuzztime 30s ./internal/ebpf/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendPRP$$' -fuzztime 30s ./internal/nvme/

# bootstorm-smoke runs the snapshot/clone suite under the race detector:
# the cow layer's model-based and property tests (page-granular private
# chunks and their break source across a cache eviction included), the
# stack-level clone round trip through the router fast path, and the
# small-fleet boot-storm experiment (shared-vs-flat table, clone-cost
# flatness, determinism).
bootstorm-smoke:
	$(GO) test -race ./internal/cow/
	$(GO) test -race -run 'TestClone' ./internal/stack/
	$(GO) test -race -short -run 'TestBootStorm' ./internal/harness/
