package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"bgpbench/internal/netaddr"
)

// metricDef names one reported metric. The two lists below are the
// program's half of the contract in BENCHMARK.json; the smoke test keeps
// the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tps", "prefixes/s"},
	{"conv_ms_p50", "ms"},
	{"conv_ms_p90", "ms"},
	{"cpu_us_per_tx", "us"},
	{"heap_live_mib", "MiB"},
}

var perLayer = []metricDef{
	{"gen.send_s", "s"},
	{"gen.sched_lag_ms_p99", "ms"},
	{"gen.sched_lag_ms_max", "ms"},
	{"gen.timer_error_ratio", "ratio"},
	{"session.deliver_ns_per_msg", "ns"},
	{"session.updates_per_batch", "count"},
	{"session.readv_updates", "count"},
	{"session.readv_prefixes_per_update", "count"},
	{"session.readv_ms_p99", "ms"},
	{"session.readv_ms_p999", "ms"},
	{"wire.parse_ns_per_prefix", "ns"},
	{"wire.parse_allocs_per_msg", "count"},
	{"wire.marshal_ns_per_prefix", "ns"},
	{"wire.marshal_allocs_per_msg", "count"},
	{"wire.bytes_per_prefix", "B"},
	{"wire.intern_hit_ratio", "ratio"},
	{"policy.import_ns_per_route", "ns"},
	{"policy.export_ns_per_route", "ns"},
	{"policy.permit_ratio", "ratio"},
	{"rib.announce_ns_per_prefix", "ns"},
	{"rib.withdraw_ns_per_prefix", "ns"},
	{"rib.decisions_per_prefix", "count"},
	{"rib.change_ratio", "ratio"},
	{"fib.apply_ns_per_op", "ns"},
	{"fib.lookup_ns", "ns"},
	{"fib.ops_per_batch", "count"},
	{"fib.changes_per_prefix", "count"},
	{"core.announce_tps", "prefixes/s"},
	{"core.withdraw_tps", "prefixes/s"},
	{"core.drain_s", "s"},
	{"core.export_drain_s", "s"},
	{"core.dispatch_updates_per_batch", "count"},
	{"core.shard_imbalance", "ratio"},
	{"core.group_fanout_ratio", "ratio"},
	{"core.group_cache_hit_ratio", "ratio"},
	{"core.group_bytes_marshaled_per_prefix", "B"},
	{"core.stage_sum_ns_per_prefix", "ns"},
	{"core.attributed_cpu_share", "ratio"},
	{"proc.alloc_b_per_tx", "B"},
	{"proc.allocs_per_tx", "count"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.peak_rss_mib", "MiB"},
	{"proc.goroutines", "count"},
	{"proc.trace_overhead_ratio", "ratio"},
}

// How a run spends --seconds: closed-loop cycles first, then one open-loop
// announce pass and one withdraw pass. Set-up and the verification cycle
// come on top.
const (
	closedShare = 0.75
	minCycles   = 4
	// setupRepeats is how many times an untraced run sets the router up;
	// setup_s is their median and the last one is measured on.
	setupRepeats = 5
)

type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // where the traced run writes its spans
}

// maxTimerError is the largest share of the shortest phase the completion
// poll may be coarse by before the run's timings are refused.
const maxTimerError = 0.01

// report is one workload run: the contract's result plus what the human
// output shows beside it.
type report struct {
	workload string
	shards   int // the router's effective shard count
	// correct: nothing failed and the timings can be trusted.
	correct   bool
	attempted int
	failed    int
	values    map[string]float64 // by metric name
	spread    map[string]dist    // for metrics that are medians over samples
	// notes are printed, not gated: generator lateness, poll quantum,
	// unattributed CPU, failed checks.
	notes []string
	// timerError is the realised poll quantum over the shortest
	// counter-completed phase (0 when completion was an event).
	timerError float64
}

// live is what the router part of a run produced.
type live struct {
	setups           []float64
	cycles           []cycleTimes
	lat              []float64 // open loop, ms, sorted
	lag              []float64 // open loop generator lateness, ms, sorted
	pacedPrefixes    int
	heapMiB          float64
	goroutines       int
	shards           int
	acc              counters // over traced closed-loop phases
	readvUpdates     int
	pollGaps         []float64
	attempted, fails int
	notes            []string
}

type cycleTimes struct {
	ann, wdr phaseTimes
	traced   bool
	// cpu is the process's CPU time over the cycle and the collection
	// forced before it.
	cpu time.Duration
}

func (c cycleTimes) tps(n int) float64 {
	return float64(2*n) / (c.ann.wall + c.wdr.wall).Seconds()
}

// traceCtx says where a traced phase hangs in the span tree and where its
// counter differences go.
type traceCtx struct {
	tr            *tracer
	parent, cycle int
	acc           *counters
}

// timedPhase is phase with, when traced, spans and counter differences
// around it.
func (h *harness) timedPhase(name string, p pass, withdraw bool, tc *traceCtx) (phaseTimes, error) {
	if tc == nil {
		return h.phase(p, withdraw, false, nil)
	}
	before := readCounters(h.r)
	pt, err := h.phase(p, withdraw, true, nil)
	tc.acc.accumulate(before, readCounters(h.r))
	at := func(d time.Duration) time.Time { return pt.start.Add(d) }
	id := tc.tr.add(name, tc.parent, tc.cycle, pt.start, at(pt.wall))
	tc.tr.add("gen.send", id, tc.cycle, pt.start, at(pt.send))
	tc.tr.add("core.drain", id, tc.cycle, at(pt.send), at(pt.send+pt.drain()))
	if h.in.w.byReceiver() {
		tc.tr.add("core.export_drain", id, tc.cycle, at(pt.wall-pt.exportDrain()), at(pt.wall))
	}
	return pt, err
}

// cycle is one announce-all then withdraw-all.
func (h *harness) cycle(tc *traceCtx) (cycleTimes, error) {
	c := cycleTimes{traced: tc != nil}
	var err error
	if c.ann, err = h.timedPhase("announce", h.in.announce, false, tc); err != nil {
		return c, err
	}
	c.wdr, err = h.timedPhase("withdraw", h.in.withdraw, true, tc)
	return c, err
}

// heapAllocMiB is the live heap. Two collections, because a sync.Pool keeps
// what it held for one more cycle and how much that is varies run to run.
// No baseline is subtracted: a stopped router stays reachable for a few
// collections, so a reading taken between routers sometimes includes one.
func heapAllocMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runLive sets the router up, measures on it and verifies its final state.
// It returns with the router stopped. A lost phase ends the run early with
// what was measured so far and the loss counted.
func runLive(in *inputs, o runOpts, tr *tracer) (lv live, err error) {
	n := len(in.routes)
	w := in.w

	// Set-up: router start, sessions Established, preload, one warm-up
	// cycle. Repeated so setup_s is a median; the last one stays up.
	repeats := setupRepeats
	if o.trace {
		repeats = 1
	}
	var h *harness
	for i := 0; i < repeats; i++ {
		if h != nil {
			h.stop()
		}
		t0 := time.Now()
		if h, err = start(in); err != nil {
			return lv, fmt.Errorf("set-up: %w", err)
		}
		if _, err = h.cycle(nil); err != nil {
			h.stop()
			return lv, fmt.Errorf("set-up warm-up cycle: %w", err)
		}
		lv.setups = append(lv.setups, time.Since(t0).Seconds())
	}
	defer func() {
		lv.pollGaps = h.pollGaps
		h.stop()
	}()
	lv.shards = h.r.Shards()
	fibBefore := h.r.FIBChanges()
	// received reads how many UPDATEs the receiver session has been sent.
	received := func() int {
		if h.rcv == nil {
			return 0
		}
		return int(h.rcv.sess.Stats.UpdatesIn.Load())
	}
	receivedBefore := received()

	// cut ends the run early: a phase that missed its deadline is folded
	// into the counts, any other error is passed through.
	cut := func(missing int, err error) (live, error) {
		if errors.Is(err, errLost) {
			lv.fails += missing
			lv.notes = append(lv.notes, fmt.Sprintf("%d prefixes not confirmed within %v; run cut short", missing, phaseDeadline))
			err = nil
		}
		return lv, err
	}

	// Closed loop.
	root := tr.open("closed_loop", -1, -1)
	budget := time.Duration(o.seconds * closedShare * float64(time.Second))
	for t0 := time.Now(); len(lv.cycles) < minCycles || time.Since(t0) < budget; {
		var tc *traceCtx
		// A traced run traces every other cycle, so the same run yields
		// the untraced rate the overhead ratio is taken against.
		if id := len(lv.cycles); tr != nil && id%2 == 0 {
			tc = &traceCtx{tr: tr, cycle: id, acc: &lv.acc}
			tc.parent = tr.open("cycle", root, id)
		}
		// Every cycle starts from a collected heap, so each sees the same
		// collections at the same points instead of whichever the last
		// cycle's garbage happens to trigger. The forced collection is off
		// the clock for tps but on it for cpu_us_per_tx: all the garbage a
		// cycle makes is paid for in one or the other cycle's CPU time.
		cpu0 := cpuTime()
		runtime.GC()
		c, err := h.cycle(tc)
		c.cpu = cpuTime() - cpu0
		if tc != nil {
			tr.end(tc.parent)
		}
		lv.attempted += 2 * n
		if err != nil {
			return cut(c.ann.missing+c.wdr.missing, err)
		}
		lv.cycles = append(lv.cycles, c)
	}
	tr.end(root)
	lv.readvUpdates = received() - receivedBefore

	// Open loop.
	root = tr.open("open_loop", -1, -1)
	m := int(w.pacedRate * o.seconds * (1 - closedShare) / 2)
	if m > n {
		m = n
	}
	pa, pw := in.paced(m)
	for i, p := range []pass{pa, pw} {
		id := tr.open([]string{"paced_announce", "paced_withdraw"}[i], root, -1)
		pt, err := h.pacedPass(p, i == 1, w.pacedRate)
		tr.end(id)
		lv.attempted += p.prefixes()
		lv.pacedPrefixes += p.prefixes()
		lv.lat = append(lv.lat, pt.lat...)
		lv.lag = append(lv.lag, pt.lag...)
		if err != nil {
			return cut(pt.missing, err)
		}
	}
	tr.end(root)
	sort.Float64s(lv.lat)
	sort.Float64s(lv.lag)

	// Verification cycle, untimed: the receiver records what it holds and
	// the router's tables are digested after each pass.
	root = tr.open("verify", -1, -1)
	var held map[netaddr.Prefix][]byte
	if w.byReceiver() {
		held = make(map[netaddr.Prefix][]byte, n)
	}
	check := func(what string, loc tableState, recv tableState) {
		for _, msg := range h.check(loc, recv, held) {
			lv.fails++
			lv.notes = append(lv.notes, what+": "+msg)
		}
	}
	pt, err := h.phase(in.announce, false, false, held)
	lv.attempted += n
	if err != nil {
		return cut(pt.missing, err)
	}
	check("after the last announce pass", in.locFull, in.recvFull)
	lv.heapMiB = heapAllocMiB()
	lv.goroutines = runtime.NumGoroutine()
	pt, err = h.phase(in.withdraw, true, false, held)
	lv.attempted += n
	if err != nil {
		return cut(pt.missing, err)
	}
	check("after the last withdraw pass", in.locEmpty, stateOf(nil))
	tr.end(root)

	if w.losers {
		// The stream must have been invisible downstream of the decision.
		stray := received() - receivedBefore
		if d := int(h.r.FIBChanges() - fibBefore); d != 0 || stray != 0 {
			lv.fails += d + stray
			lv.notes = append(lv.notes, fmt.Sprintf("no-change stream changed the FIB %d times and reached the receiver %d times", d, stray))
		}
	}
	return lv, nil
}

// run executes one workload and assembles its report.
func run(w workload, o runOpts) (*report, error) {
	in := buildInputs(w, o.seed)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	lv, err := runLive(in, o, tr)
	if err != nil {
		return nil, err
	}
	rep := &report{
		workload:  w.name,
		shards:    lv.shards,
		attempted: lv.attempted,
		failed:    lv.fails,
		values:    map[string]float64{},
		spread:    map[string]dist{},
		notes:     lv.notes,
	}
	n := len(in.routes)

	// Per-cycle rates, and their medians.
	var tps, atps, wtps, cpu, tracedTPS, untracedTPS, phaseWall []float64
	for _, c := range lv.cycles {
		tps = append(tps, c.tps(n))
		atps = append(atps, float64(n)/c.ann.wall.Seconds())
		wtps = append(wtps, float64(n)/c.wdr.wall.Seconds())
		cpu = append(cpu, float64(c.cpu.Microseconds())/float64(2*n))
		phaseWall = append(phaseWall, c.ann.wall.Seconds(), c.wdr.wall.Seconds())
		if c.traced {
			tracedTPS = append(tracedTPS, c.tps(n))
		} else {
			untracedTPS = append(untracedTPS, c.tps(n))
		}
	}
	sort.Float64s(phaseWall)
	if len(lv.pollGaps) > 0 && len(phaseWall) > 0 {
		gap := median(lv.pollGaps)
		rep.timerError = gap / phaseWall[0]
		rep.notes = append(rep.notes, fmt.Sprintf("completion seen within %.0f us of the previous poll, shortest phase %.0f ms: timer_error_ratio %.5f (refused above %g)",
			gap*1e6, phaseWall[0]*1e3, rep.timerError, maxTimerError))
	}
	rep.correct = rep.failed == 0 && rep.timerError <= maxTimerError
	if len(lv.lag) > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("open loop: %d prefixes at %.0f/s, generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms",
			lv.pacedPrefixes, w.pacedRate, quantile(lv.lag, 0.5), quantile(lv.lag, 0.99), lv.lag[len(lv.lag)-1]))
	}
	cpuPerTx := median(cpu)

	set := func(name string, v float64) { rep.values[name] = v }
	setDist := func(name string, xs []float64) {
		d := summarize(xs)
		rep.values[name], rep.spread[name] = d.Median, d
	}
	if !o.trace {
		setDist("setup_s", lv.setups)
		setDist("tps", tps)
		set("conv_ms_p50", quantile(lv.lat, 0.5))
		set("conv_ms_p90", quantile(lv.lat, 0.9))
		setDist("cpu_us_per_tx", cpu)
		set("heap_live_mib", lv.heapMiB)
		rep.notes = append(rep.notes,
			fmt.Sprintf("open loop: %d latency samples, %d beyond p90", len(lv.lat), len(lv.lat)/10),
			fmt.Sprintf("announce %.0f, withdraw %.0f prefixes/s (medians over cycles; the traced run reports them as core.*_tps)", median(atps), median(wtps)))
		return rep, nil
	}

	// Traced run: the live run's spans and counter differences, then each
	// layer on its own.
	root := tr.open("replay", -1, -1)
	fibBatch := int(ratio(float64(lv.acc.fibOps), float64(lv.acc.fibBatches)) + 0.5)
	st, err := replay(in, lv.shards, fibBatch, tr, root)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("staged replay: %w", err)
	}
	path, err := tr.write(o.outDir, w.name)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))

	var send, drain, exportDrain []float64
	for _, c := range lv.cycles {
		if !c.traced {
			continue
		}
		for _, pt := range []phaseTimes{c.ann, c.wdr} {
			send = append(send, pt.send.Seconds())
			drain = append(drain, pt.drain().Seconds())
			exportDrain = append(exportDrain, pt.exportDrain().Seconds())
		}
	}
	acc := lv.acc
	tx := float64(acc.tx)
	// readvPerPrefix is how many times a prefix sent goes out again.
	readvPerPrefix := 0.0
	if w.byReceiver() {
		readvPerPrefix = 1
	}
	setDist("gen.send_s", send)
	set("gen.sched_lag_ms_p99", quantile(lv.lag, 0.99))
	set("gen.sched_lag_ms_max", quantile(lv.lag, 1))
	set("gen.timer_error_ratio", rep.timerError)
	set("session.deliver_ns_per_msg", st.sessionDeliverNs)
	set("session.updates_per_batch", st.sessionPerBatch)
	set("session.readv_updates", float64(lv.readvUpdates))
	set("session.readv_prefixes_per_update", ratio(readvPerPrefix*float64(2*n*len(lv.cycles)), float64(lv.readvUpdates)))
	set("session.readv_ms_p99", quantile(lv.lat, 0.99))
	set("session.readv_ms_p999", quantile(lv.lat, 0.999))
	set("wire.parse_ns_per_prefix", st.wireParseNs)
	set("wire.parse_allocs_per_msg", st.wireParseAllocs)
	set("wire.marshal_ns_per_prefix", st.wireMarshalNs)
	set("wire.marshal_allocs_per_msg", st.wireMarshalAllocs)
	set("wire.bytes_per_prefix", st.wireBytes)
	set("wire.intern_hit_ratio", ratio(float64(acc.internHits), float64(acc.internHits+acc.internMisses)))
	set("policy.import_ns_per_route", st.policyImportNs)
	set("policy.export_ns_per_route", st.policyExportNs)
	set("policy.permit_ratio", st.policyPermit)
	set("rib.announce_ns_per_prefix", st.ribAnnounceNs)
	set("rib.withdraw_ns_per_prefix", st.ribWithdrawNs)
	set("rib.decisions_per_prefix", st.ribDecisions)
	set("rib.change_ratio", st.ribChange)
	set("fib.apply_ns_per_op", st.fibApplyNs)
	set("fib.lookup_ns", st.fibLookupNs)
	set("fib.ops_per_batch", ratio(float64(acc.fibOps), float64(acc.fibBatches)))
	changesPerPrefix := ratio(float64(acc.fibChanges), tx)
	set("fib.changes_per_prefix", changesPerPrefix)
	setDist("core.announce_tps", atps)
	setDist("core.withdraw_tps", wtps)
	setDist("core.drain_s", drain)
	setDist("core.export_drain_s", exportDrain)
	set("core.dispatch_updates_per_batch", ratio(float64(acc.dispatchUps), float64(acc.dispatchBatches)))
	set("core.shard_imbalance", acc.shardImbalance())
	set("core.group_fanout_ratio", ratio(float64(acc.group.Sends), float64(acc.group.Runs)))
	set("core.group_cache_hit_ratio", ratio(float64(acc.group.CacheHits), float64(acc.group.CacheHits+acc.group.CacheMisses)))
	set("core.group_bytes_marshaled_per_prefix", ratio(float64(acc.group.BytesMarshaled), tx/2))

	// What the layers explain of the live CPU per transaction: every
	// prefix is delivered and decided; policy runs on the announcing half
	// of the transactions; the FIB and the marshal only work for the share
	// that changes the table or goes out again.
	stageSum := st.sessionDeliverNs*st.sessionMsgsPerPfx +
		(st.policyImportNs+st.policyExportNs)/2 +
		(st.ribAnnounceNs+st.ribWithdrawNs)/2 +
		st.fibApplyNs*changesPerPrefix +
		st.wireMarshalNs*readvPerPrefix
	share := ratio(stageSum, cpuPerTx*1e3)
	set("core.stage_sum_ns_per_prefix", stageSum)
	set("core.attributed_cpu_share", share)
	rep.notes = append(rep.notes, fmt.Sprintf("isolated layers explain %.0f ns of %.0f ns CPU per transaction; %.0f%% is queues, locks, scheduler, GC, syscalls and the in-process generator",
		stageSum, cpuPerTx*1e3, 100*(1-share)))

	set("proc.alloc_b_per_tx", ratio(float64(acc.allocBytes), tx))
	set("proc.allocs_per_tx", ratio(float64(acc.mallocs), tx))
	set("proc.gc_cycles", float64(acc.gcCycles))
	set("proc.gc_pause_ms", float64(acc.gcPause)/float64(time.Millisecond))
	_, maxRSS := rusage()
	set("proc.peak_rss_mib", float64(maxRSS)/1024)
	set("proc.goroutines", float64(lv.goroutines))
	set("proc.trace_overhead_ratio", ratio(median(tracedTPS), median(untracedTPS)))
	return rep, nil
}
