package status

import (
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"bgpbench/internal/core"
	"bgpbench/internal/damping"
	"bgpbench/internal/fib"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/netem"
)

func testRouter(t *testing.T) *core.Router {
	t.Helper()
	r, err := core.NewRouter(core.Config{
		AS:      65000,
		ID:      netaddr.MustParseAddr("10.255.0.1"),
		Damping: &damping.Config{},
		Neighbors: []core.NeighborConfig{
			{AS: 65001},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Populate the FIB directly (no sessions needed for handler tests).
	r.FIB().Insert(netaddr.MustParsePrefix("10.0.0.0/8"), fib.Entry{NextHop: netaddr.MustParseAddr("1.1.1.1"), Port: 3})
	r.FIB().Insert(netaddr.MustParsePrefix("192.0.2.0/24"), fib.Entry{NextHop: netaddr.MustParseAddr("2.2.2.2"), Port: 5})
	return r
}

func get(t *testing.T, r *core.Router, path string) (int, string) {
	t.Helper()
	srv := httptest.NewServer(Handler(r, 65000))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestStatusJSON(t *testing.T) {
	r := testRouter(t)
	code, body := get(t, r, "/status")
	if code != 200 {
		t.Fatalf("status code %d", code)
	}
	var s Summary
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if s.AS != 65000 || s.FIBEntries != 2 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestFIBDump(t *testing.T) {
	r := testRouter(t)
	code, body := get(t, r, "/fib")
	if code != 200 {
		t.Fatalf("status code %d", code)
	}
	for _, want := range []string{"10.0.0.0/8", "192.0.2.0/24", "via 1.1.1.1", "# 2 entries"} {
		if !strings.Contains(body, want) {
			t.Errorf("fib dump missing %q:\n%s", want, body)
		}
	}
}

func TestMetrics(t *testing.T) {
	r := testRouter(t)
	r.FIB().Lookup(netaddr.MustParseAddr("10.1.1.1"))
	code, body := get(t, r, "/metrics")
	if code != 200 {
		t.Fatalf("status code %d", code)
	}
	for _, want := range []string{
		"bgp_fib_entries 2",
		"bgp_fib_lookups_total 1",
		"bgp_transactions_total 0",
		"bgp_flaps_total 0",
		"bgp_shards ",
		"bgp_shard_queue_depth{shard=\"0\"} 0",
		"bgp_shard_transactions_total{shard=\"0\"} 0",
		"bgp_stale_peer_work_total 0",
		"bgp_rib_unregistered_drops_total 0",
		"bgp_attr_intern_size 0",
		"bgp_attr_intern_hits_total 0",
		"bgp_attr_intern_misses_total 0",
		"bgp_fib_batches_total 0",
		"bgp_fib_batch_ops_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsUpdateGroups covers the grouped-emission metric block: the
// shared-sink counters and the rebuild-latency histogram must render in
// Prometheus form (cumulative le buckets plus sum/count) even before any
// rebuild has been observed, and no marshal-cache series is left.
func TestMetricsUpdateGroups(t *testing.T) {
	r, err := core.NewRouter(core.Config{
		AS:           65000,
		ID:           netaddr.MustParseAddr("10.255.0.1"),
		UpdateGroups: true,
		Neighbors:    []core.NeighborConfig{{AS: 65001}},
	})
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, r, "/metrics")
	if code != 200 {
		t.Fatalf("status code %d", code)
	}
	for _, want := range []string{
		"bgp_update_groups 0",
		"bgp_update_group_bytes_marshaled_total 0",
		"bgp_update_group_rebuilds_total 0",
		"bgp_update_group_rebuild_chunks_total 0",
		"bgp_update_group_rebuild_seconds_bucket{le=\"0.001\"} 0",
		"bgp_update_group_rebuild_seconds_bucket{le=\"10\"} 0",
		"bgp_update_group_rebuild_seconds_bucket{le=\"+Inf\"} 0",
		"bgp_update_group_rebuild_seconds_sum 0",
		"bgp_update_group_rebuild_seconds_count 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "marshal_cache") {
		t.Errorf("metrics still export a marshal-cache series:\n%s", body)
	}
	code, body = get(t, r, "/status")
	if code != 200 {
		t.Fatalf("status code %d", code)
	}
	if strings.Contains(body, "marshal_cache") {
		t.Errorf("status still has a marshal-cache field: %s", body)
	}
	var s Summary
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if !s.UpdateGroups {
		t.Errorf("summary update_groups = false, want true: %+v", s)
	}
}

func TestUnknownPath(t *testing.T) {
	r := testRouter(t)
	code, _ := get(t, r, "/nope")
	if code != 404 {
		t.Fatalf("status code %d, want 404", code)
	}
}

// failingWriter is a ResponseWriter whose body rejects writes after a
// byte budget, modeling a client that disconnects mid-response. The
// handlers must tolerate it without panicking: metrics scrapes race
// against benchmark shutdown constantly.
type failingWriter struct {
	*httptest.ResponseRecorder
	budget int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errors.New("client went away")
	}
	n := len(p)
	if n > f.budget {
		n = f.budget
	}
	f.budget -= n
	n, err := f.ResponseRecorder.Write(p[:n])
	if err != nil {
		return n, err
	}
	if f.budget == 0 {
		return n, errors.New("client went away")
	}
	return n, nil
}

func serveFailing(t *testing.T, r *core.Router, path string, budget int) *failingWriter {
	t.Helper()
	w := &failingWriter{ResponseRecorder: httptest.NewRecorder(), budget: budget}
	req := httptest.NewRequest("GET", path, nil)
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("GET %s with failing writer panicked: %v", path, p)
		}
	}()
	Handler(r, 65000).ServeHTTP(w, req)
	return w
}

func TestMetricsClientGone(t *testing.T) {
	r := testRouter(t)
	// Fail immediately and mid-stream: every Fprintf after the failure
	// point must be a clean no-op.
	for _, budget := range []int{0, 25} {
		w := serveFailing(t, r, "/metrics", budget)
		if got := w.Body.Len(); got > budget {
			t.Errorf("budget %d: handler wrote %d bytes past a dead client", budget, got)
		}
		if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("budget %d: Content-Type = %q, want text/plain (set before the body)", budget, ct)
		}
	}
}

func TestStatusClientGone(t *testing.T) {
	r := testRouter(t)
	w := serveFailing(t, r, "/status", 0)
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json even when the body write fails", ct)
	}
}

func TestFIBDumpClientGone(t *testing.T) {
	r := testRouter(t)
	serveFailing(t, r, "/fib", 10)
}

func TestMetricsWithFaults(t *testing.T) {
	r := testRouter(t)
	inj := netem.NewInjector(netem.Profile{}, nil)
	srv := httptest.NewServer(HandlerWithFaults(r, 65000, inj))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"netem_conns_total 0",
		"netem_corrupts_total 0",
		"netem_bytes_out_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing fault counter %q:\n%s", want, body)
		}
	}
}
