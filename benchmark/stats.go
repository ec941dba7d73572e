package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// dist summarises one timing or rate over its samples: the median is what
// the benchmark reports, the quartiles and count say how much to trust it.
type dist struct {
	N              int
	Q1, Median, Q3 float64
}

// summarize sorts xs in place. An empty sample reads as all zeros.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	return dist{N: len(xs), Q1: quantile(xs, 0.25), Median: quantile(xs, 0.5), Q3: quantile(xs, 0.75)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// quantile interpolates linearly between the order statistics of an
// already sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// ratio is a/b with 0/0 = 0, so counters that did not move read as zero
// instead of NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rusage reads the process's CPU time (user+system) and peak RSS. The
// generator runs in-process, so both include it; the README says so.
func rusage() (cpu time.Duration, maxRSSKiB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), ru.Maxrss
}

func cpuTime() time.Duration {
	cpu, _ := rusage()
	return cpu
}

// pollQuantum is how often the open-loop sampler reads Transactions(). It
// sleeps in the kernel, because time.Sleep rounds short sleeps up to the
// netpoller's 1 ms granularity on a mostly idle process. A thread asleep in
// a raw syscall keeps its P until sysmon takes it back, which costs a
// saturated router a quarter of its throughput (measured on transit_large),
// so only the open loop — where an idle P always exists — polls this way.
const pollQuantum = 100 * time.Microsecond

func pollSleep() {
	ts := syscall.NsecToTimespec(int64(pollQuantum))
	_ = syscall.Nanosleep(&ts, nil) // EINTR just shortens one poll gap
}
