package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bgpbench/internal/core"
)

// span is one traced interval. Spans are recorded by the benchmark around
// its own calls into the router and the layers' public functions; nothing
// inside the program is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the root
	Cycle  int    `json:"cycle"`  // spans of one cycle share it; -1 outside cycles
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	// Self is End-Start minus the part of it child spans cover, filled in
	// when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run runs.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished interval and returns its id for children to name
// as parent.
func (t *tracer) add(name string, parent, cycle int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Cycle: cycle, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// open reserves a span whose end is not known yet; close it with end.
func (t *tracer) open(name string, parent, cycle int) int {
	now := time.Now()
	return t.add(name, parent, cycle, now, now)
}

func (t *tracer) end(id int) {
	if t != nil && id >= 0 {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
	}
}

// write computes self times and stores the trace under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		// Children of one parent here never overlap except the counter
		// watch, which runs beside the receiver wait; clamp at zero.
		if s.Self = s.End - s.Start - covered[i]; s.Self < 0 {
			s.Self = 0
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// counters is every count the router and the runtime expose through public
// getters, read at one instant. Layer ratios are taken over differences of
// these across the timed windows.
type counters struct {
	tx                           uint64
	shardTx                      []uint64
	dispatchBatches, dispatchUps uint64
	fibBatches, fibOps           uint64
	fibChanges                   uint64
	internHits, internMisses     uint64
	group                        core.GroupStats
	allocBytes, mallocs          uint64
	gcCycles                     uint32
	gcPause                      time.Duration
}

func readCounters(r *core.Router) counters {
	var c counters
	c.tx = r.Transactions()
	for _, s := range r.ShardStats() {
		c.shardTx = append(c.shardTx, s.Transactions)
	}
	c.dispatchBatches, c.dispatchUps = r.DispatchStats()
	c.fibBatches, c.fibOps = r.FIBBatchStats()
	c.fibChanges = r.FIBChanges()
	is := r.InternStats()
	c.internHits, c.internMisses = is.Hits, is.Misses
	c.group = r.GroupStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes, c.mallocs = ms.TotalAlloc, ms.Mallocs
	c.gcCycles, c.gcPause = ms.NumGC, time.Duration(ms.PauseTotalNs)
	return c
}

// accumulate adds (after - before) into c.
func (c *counters) accumulate(before, after counters) {
	c.tx += after.tx - before.tx
	if c.shardTx == nil {
		c.shardTx = make([]uint64, len(after.shardTx))
	}
	for i := range c.shardTx {
		c.shardTx[i] += after.shardTx[i] - before.shardTx[i]
	}
	c.dispatchBatches += after.dispatchBatches - before.dispatchBatches
	c.dispatchUps += after.dispatchUps - before.dispatchUps
	c.fibBatches += after.fibBatches - before.fibBatches
	c.fibOps += after.fibOps - before.fibOps
	c.fibChanges += after.fibChanges - before.fibChanges
	c.internHits += after.internHits - before.internHits
	c.internMisses += after.internMisses - before.internMisses
	c.group.Runs += after.group.Runs - before.group.Runs
	c.group.Sends += after.group.Sends - before.group.Sends
	c.group.BytesMarshaled += after.group.BytesMarshaled - before.group.BytesMarshaled
	c.group.CacheHits += after.group.CacheHits - before.group.CacheHits
	c.group.CacheMisses += after.group.CacheMisses - before.group.CacheMisses
	c.allocBytes += after.allocBytes - before.allocBytes
	c.mallocs += after.mallocs - before.mallocs
	c.gcCycles += after.gcCycles - before.gcCycles
	c.gcPause += after.gcPause - before.gcPause
}

// shardImbalance is the busiest shard's share of the work over the mean
// share: 1 when the hash spreads prefixes evenly.
func (c counters) shardImbalance() float64 {
	var sum, max uint64
	for _, v := range c.shardTx {
		sum += v
		if v > max {
			max = v
		}
	}
	return ratio(float64(max)*float64(len(c.shardTx)), float64(sum))
}
