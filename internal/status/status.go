// Package status exposes a router's operational state over HTTP for
// inspection while benchmarks run: a JSON summary, a plain-text FIB dump,
// and Prometheus-style counters. It is read-only and adds no processing
// on the router's hot paths beyond the atomic counter reads.
package status

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"bgpbench/internal/core"
	"bgpbench/internal/fib"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/netem"
)

// Summary is the JSON document served at /status.
type Summary struct {
	AS              uint32 `json:"as"`
	FIBEntries      int    `json:"fib_entries"`
	FIBChanges      uint64 `json:"fib_changes"`
	Transactions    uint64 `json:"transactions"`
	FIBLookups      uint64 `json:"fib_lookups"`
	Flaps           uint64 `json:"flaps,omitempty"`
	Shards          int    `json:"shards"`
	InternSize      int    `json:"intern_size"`
	FIBBatches      uint64 `json:"fib_batches"`
	DispatchBatches uint64 `json:"dispatch_batches"`
	DispatchUpdates uint64 `json:"dispatch_updates"`

	// Update-group fields, present when the router runs grouped emission.
	UpdateGroups     bool    `json:"update_groups,omitempty"`
	Groups           int     `json:"update_group_count,omitempty"`
	GroupFanoutRatio float64 `json:"update_group_fanout_ratio,omitempty"`
	GroupBytesSaved  uint64  `json:"update_group_bytes_saved,omitempty"`
	// Shared-sink marshal bytes and incremental-rebuild counters.
	GroupBytesMarshaled uint64 `json:"update_group_bytes_marshaled,omitempty"`
	GroupRebuilds       uint64 `json:"update_group_rebuilds,omitempty"`
	GroupRebuildChunks  uint64 `json:"update_group_rebuild_chunks,omitempty"`
}

// Handler builds the HTTP mux for a router.
//
//	GET /status   JSON summary
//	GET /fib      plain-text FIB dump (prefix, next hop, port)
//	GET /metrics  Prometheus-style counters
func Handler(r *core.Router, as uint32) http.Handler {
	return handler(r, as, nil)
}

// HandlerWithFaults is Handler plus netem fault-injection counters on
// /metrics, for routers running under a chaos profile.
func HandlerWithFaults(r *core.Router, as uint32, inj *netem.Injector) http.Handler {
	return handler(r, as, inj)
}

func handler(r *core.Router, as uint32, inj *netem.Injector) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		s := Summary{
			AS:           as,
			FIBEntries:   r.FIB().Len(),
			FIBChanges:   r.FIBChanges(),
			Transactions: r.Transactions(),
			FIBLookups:   r.FIB().Lookups(),
		}
		if d := r.Damper(); d != nil {
			s.Flaps = d.Flaps()
		}
		s.Shards = r.Shards()
		s.InternSize = r.InternStats().Size
		s.FIBBatches, _ = r.FIBBatchStats()
		s.DispatchBatches, s.DispatchUpdates = r.DispatchStats()
		if gs := r.GroupStats(); gs.Enabled {
			s.UpdateGroups = true
			s.Groups = gs.Groups
			s.GroupFanoutRatio = gs.FanoutRatio()
			s.GroupBytesSaved = gs.BytesSaved
			s.GroupBytesMarshaled = gs.BytesMarshaled
			s.GroupRebuilds = gs.Rebuilds
			s.GroupRebuildChunks = gs.RebuildChunks
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s)
	})
	mux.HandleFunc("/fib", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		count := 0
		r.FIB().Walk(func(p netaddr.Prefix, e fib.Entry) bool {
			fmt.Fprintf(w, "%-20s via %-15s port %d\n", p, e.NextHop, e.Port)
			count++
			return true
		})
		fmt.Fprintf(w, "# %d entries\n", count)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "bgp_transactions_total %d\n", r.Transactions())
		fmt.Fprintf(w, "bgp_fib_entries %d\n", r.FIB().Len())
		fmt.Fprintf(w, "bgp_fib_changes_total %d\n", r.FIBChanges())
		fmt.Fprintf(w, "bgp_fib_lookups_total %d\n", r.FIB().Lookups())
		if d := r.Damper(); d != nil {
			fmt.Fprintf(w, "bgp_flaps_total %d\n", d.Flaps())
		}
		fmt.Fprintf(w, "bgp_shards %d\n", r.Shards())
		for i, st := range r.ShardStats() {
			fmt.Fprintf(w, "bgp_shard_queue_depth{shard=\"%d\"} %d\n", i, st.QueueDepth)
			fmt.Fprintf(w, "bgp_shard_transactions_total{shard=\"%d\"} %d\n", i, st.Transactions)
			fmt.Fprintf(w, "bgp_shard_batches_total{shard=\"%d\"} %d\n", i, st.Batches)
		}
		db, du := r.DispatchStats()
		fmt.Fprintf(w, "bgp_dispatch_batches_total %d\n", db)
		fmt.Fprintf(w, "bgp_dispatch_updates_total %d\n", du)
		// Lifecycle drops: stale work is a bounced session's late tail
		// (expected under flaps); an unregistered drop is a bug.
		fmt.Fprintf(w, "bgp_stale_peer_work_total %d\n", r.StalePeerWork())
		fmt.Fprintf(w, "bgp_rib_unregistered_drops_total %d\n", r.RIBUnregisteredDrops())
		is := r.InternStats()
		fmt.Fprintf(w, "bgp_attr_intern_size %d\n", is.Size)
		fmt.Fprintf(w, "bgp_attr_intern_hits_total %d\n", is.Hits)
		fmt.Fprintf(w, "bgp_attr_intern_misses_total %d\n", is.Misses)
		batches, ops := r.FIBBatchStats()
		fmt.Fprintf(w, "bgp_fib_batches_total %d\n", batches)
		fmt.Fprintf(w, "bgp_fib_batch_ops_total %d\n", ops)
		if gs := r.GroupStats(); gs.Enabled {
			fmt.Fprintf(w, "bgp_update_groups %d\n", gs.Groups)
			fmt.Fprintf(w, "bgp_update_group_runs_total %d\n", gs.Runs)
			fmt.Fprintf(w, "bgp_update_group_sends_total %d\n", gs.Sends)
			fmt.Fprintf(w, "bgp_update_group_fanout_ratio %g\n", gs.FanoutRatio())
			fmt.Fprintf(w, "bgp_update_group_bytes_built_total %d\n", gs.BytesBuilt)
			fmt.Fprintf(w, "bgp_update_group_bytes_saved_total %d\n", gs.BytesSaved)
			fmt.Fprintf(w, "bgp_update_group_suppressed_total %d\n", gs.Suppressed)
			fmt.Fprintf(w, "bgp_update_group_bytes_marshaled_total %d\n", gs.BytesMarshaled)
			fmt.Fprintf(w, "bgp_update_group_rebuilds_total %d\n", gs.Rebuilds)
			fmt.Fprintf(w, "bgp_update_group_rebuild_chunks_total %d\n", gs.RebuildChunks)
			// Rebuild-latency histogram in Prometheus cumulative-bucket
			// form: one whole-group rebuild or member replay = one
			// observation, measured schedule-to-last-chunk.
			h := r.RebuildLatency()
			cum := uint64(0)
			for i, b := range h.Bounds {
				cum += h.Counts[i]
				fmt.Fprintf(w, "bgp_update_group_rebuild_seconds_bucket{le=\"%g\"} %d\n", b, cum)
			}
			fmt.Fprintf(w, "bgp_update_group_rebuild_seconds_bucket{le=\"+Inf\"} %d\n", h.Count)
			fmt.Fprintf(w, "bgp_update_group_rebuild_seconds_sum %g\n", h.Sum)
			fmt.Fprintf(w, "bgp_update_group_rebuild_seconds_count %d\n", h.Count)
		}
		if inj != nil {
			st := inj.Stats()
			fmt.Fprintf(w, "netem_conns_total %d\n", st.Conns)
			fmt.Fprintf(w, "netem_accepts_total %d\n", st.Accepts)
			fmt.Fprintf(w, "netem_corrupts_total %d\n", st.Corrupts)
			fmt.Fprintf(w, "netem_reorders_total %d\n", st.Reorders)
			fmt.Fprintf(w, "netem_stalls_total %d\n", st.Stalls)
			fmt.Fprintf(w, "netem_read_stalls_total %d\n", st.ReadStalls)
			fmt.Fprintf(w, "netem_resets_total %d\n", st.Resets)
			fmt.Fprintf(w, "netem_bytes_out_total %d\n", st.BytesOut)
			fmt.Fprintf(w, "netem_bytes_in_total %d\n", st.BytesIn)
		}
	})
	// Profiling endpoints for the hot paths (CPU, heap, contention). A
	// custom mux does not inherit net/http/pprof's DefaultServeMux
	// registrations, so wire them explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
