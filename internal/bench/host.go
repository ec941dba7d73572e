package bench

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// HostInfo records the execution environment a benchmark ran under, so
// -json results are comparable across machines: a 4-shard number from a
// 1-core box means something very different from the same number on 16
// cores.
type HostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Host snapshots the current process's execution environment.
func Host() HostInfo {
	return HostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// MemInfo records process memory at a measurement point, so persisted
// results carry the space cost next to the throughput numbers.
type MemInfo struct {
	// AllocBytes is live heap after a forced GC: the structures' actual
	// footprint, not allocator slack.
	AllocBytes uint64 `json:"alloc_bytes"`
	// RSSBytes is the OS resident set (VmRSS), 0 where unavailable.
	RSSBytes uint64 `json:"rss_bytes,omitempty"`
}

// Mem snapshots live-heap and RSS. It runs a GC cycle first so numbers
// are comparable across runs; callers should not place it on a hot path.
func Mem() MemInfo {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemInfo{AllocBytes: ms.HeapAlloc, RSSBytes: readRSS()}
}

// readRSS parses VmRSS from /proc/self/status (linux); 0 elsewhere.
func readRSS() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}
