#!/bin/sh
# The pre-merge gate, defined once. `sh scripts/ci.sh` runs every step in
# order; `sh scripts/ci.sh STEP...` runs the named ones. The Makefile's
# targets (`make check`, `make lint`, ...) call this file and add nothing.
set -eu

GO=${GO:-go}

step_build() {
	$GO build ./...
}

# Fail with the offending file list if any file is not gofmt-clean.
step_fmt() {
	out="$(${GOFMT:-gofmt} -l .)"
	if [ -n "$out" ]; then
		echo "gofmt needed on:" >&2
		echo "$out" >&2
		return 1
	fi
}

# go vet twice: the default suite, then an explicit pass pinning the two
# checks the concurrency and counter code leans on hardest (copied locks,
# discarded sync/atomic results) so they stay on even if the default set
# ever changes.
step_vet() {
	$GO vet ./...
	$GO vet -copylocks -unusedresult ./...
}

# Project-invariant static analysis (internal/analysis, cmd/bgplint):
# any finding fails; an audited exception is a reasoned
# //bgplint:allow directive at the finding, listed in docs/lint-allows.md.
step_lint() {
	$GO run ./cmd/bgplint ./...
}

# The sharded router, the session layer and the FIB's lock-free snapshot
# read path (lookup-under-churn, IPv4 and IPv6) under the race detector.
step_race() {
	$GO test -race ./internal/core/... ./internal/session/... ./internal/fib/...
}

# Fault-injection conformance under the race detector: one representative
# scenario (flap-reset, N=1 vs N=4 shards), replay determinism, the
# many-peer update-group equivalence gate, and the dual-stack digest
# matrix (v4/v6/dual with IPv6 NLRI end to end).
step_conformance() {
	BGPBENCH_CONFORMANCE_GATE=1 $GO test -race \
		-run 'TestConformanceGate|TestConformanceManyPeerGate|TestConformanceReplayDeterminism|TestConformanceDualStackGate' ./internal/bench/
}

# Peer-lifecycle stress: the bounced-peer model test, the two leak tests
# (bounces with MRAI on, both group keyings; connections that come and
# go), the group join/leave tests, a stalled receiver and the goroutines
# a peer costs, the session layer's reconnect and stalled-peer tests and
# the order of a burst cut by a NOTIFICATION, and the faulted
# conformance gates plus the phase settle under a sender stall (a settle
# that fires early shows up as digest drift), twenty times each on one
# and on two scheduler threads. Flap handling that passes once proves
# nothing. The two hold-timer tests wait out real 3 s hold times (5 and
# 11 s a run), so they run twice per thread count instead.
step_stress() {
	for procs in 1 2; do
		GOMAXPROCS=$procs $GO test -count=20 \
			-run 'TestPeerLifecycleInterleavings|TestPeerUpOvertakenBySuccessor|TestMRAIFlusherDoesNotLeakAcrossBounces|TestRouterForgetsFinishedSessions|TestGroupSecondMemberSeesSoleMembersRoutes|TestGroupJoinMidStream|TestStalledReceiverDoesNotBlockPropagation|TestRouterPeerGoroutines' ./internal/core/
		GOMAXPROCS=$procs $GO test -count=20 \
			-run 'TestMidOpenConnFailure|TestNetemResetTearsDownCleanly|TestConnectRetryBackoffUnderResets|TestStalledPeerCannotWedgeSession|TestBurstEndsAtNotification' ./internal/session/
		GOMAXPROCS=$procs $GO test -count=2 \
			-run 'TestHoldTimerExpiryUnderReadStall|TestHoldTimerKeptByUpdates' ./internal/session/
		GOMAXPROCS=$procs $GO test -count=20 \
			-run 'TestConformanceGate|TestConformanceManyPeerGate|TestConformanceReplayDeterminism|TestSettleOutlastsSenderStall' ./internal/bench/
	done
}

# Hot-path microbenchmark smoke, one iteration each so they compile and
# run on every gate (real numbers need -benchtime well above 1x). The
# 100k-prefix group rebuild is the large-table smoke: one full chunked
# catch-up of a group table from the Loc-RIB. The footprint benchmarks
# print the Loc-RIB's and the FIB's B/prefix for the benchmark's table
# shapes; one iteration is their whole measurement. BenchmarkPatriciaApply
# backs the FIB commit stage (ns per FIB op, startup_small-shaped batches).
# The session receive benchmark backs the session.deliver stage (ns/msg,
# allocs/msg, at 1 and 500 prefixes per UPDATE) and, in its lone case,
# conv_ms at the session layer (ns from a lone UPDATE's write to its
# delivery).
# BenchmarkProcessUpdate/policy=sliver/prefixes=500 backs the policy
# stages: transit_large-shaped UPDATEs through an import and an export
# route map to a receiver (ns/prefix, allocs per 500-prefix UPDATE), over
# a 20k-prefix table that fits in cache and over transit_large's 400k
# (table=400k), where the prefix index and the Adj-RIB-Out column miss.
# BenchmarkLocRIBFootprint/dfz400k_adjout prints the B/prefix of one
# update group's Adj-RIB-Out column beside the 400k Loc-RIB. Both run
# under the patterns below, which match every case of their benchmark.
step_bench_smoke() {
	$GO test -run='^$' -bench 'BenchmarkDispatchUpdate|BenchmarkProcessUpdate|BenchmarkEmitGrouped' \
		-benchtime=1x ./internal/core/
	$GO test -run='^$' -bench 'BenchmarkGroupRebuild/prefixes=100000' \
		-benchtime=1x ./internal/core/
	BGPBENCH_LOOKUP_N=50000 $GO test -run='^$' \
		-bench 'BenchmarkLookup$|BenchmarkLookupV6$|BenchmarkLookupChurn' \
		-benchtime=1x ./internal/fib/
	$GO test -run='^$' -bench 'BenchmarkLocRIBFootprint|BenchmarkPatriciaFootprint|BenchmarkPatriciaApply' \
		-benchtime=1x ./internal/rib/ ./internal/fib/
	$GO test -run='^$' -bench 'BenchmarkSessionReceive' -benchtime=1x ./internal/session/
}

# Coverage-guided fuzzing of the three table models, 10 s each: the
# Loc-RIB against its naive reference (candidate sets, MED cycles, peer
# removal, Loc-RIB id reuse), an update group's Adj-RIB-Out column
# against one reference table per member (ids reused, members leaving and
# rejoining), and the Loc-RIB's prefix index against a map (both
# families, growth, backward-shift deletes). Go fuzzes one target per
# invocation.
step_fuzz() {
	$GO test -run='^$' -fuzz='^FuzzLocRIBModel$' -fuzztime=10s ./internal/rib/
	$GO test -run='^$' -fuzz='^FuzzAdjOutMemberViews$' -fuzztime=10s ./internal/rib/
	$GO test -run='^$' -fuzz='^FuzzPrefixIndex$' -fuzztime=10s ./internal/rib/
}

# The examples that drive the router's tables end to end, each with its
# existing flags and a short input: quickstart walks and looks up the FIB,
# policylab filters and aggregates, lookupalgos times every FIB engine,
# convergence times re-convergence per engine, crosstraffic forwards
# traffic while the table churns.
step_examples() {
	$GO run ./examples/quickstart
	$GO run ./examples/policylab
	$GO run ./examples/lookupalgos -n 20000 -lookups 200000
	$GO run ./examples/convergence -n 2000
	$GO run ./examples/crosstraffic -n 2000
}

# The repository benchmark (benchmark/, BENCHMARK.json) must build and
# pass its own tests. ./... above already covers it; it is named so that
# narrowing those patterns can never drop the ruler from the gate.
step_benchmark() {
	$GO vet ./benchmark
	$GO test ./benchmark
}

step_test() {
	$GO test ./...
}

if [ $# -eq 0 ]; then
	set -- build fmt vet lint race conformance stress fuzz bench-smoke examples benchmark test
fi
for step in "$@"; do
	echo "== $step"
	"step_$(echo "$step" | tr - _)"
done
