package speaker

import (
	"testing"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/netaddr"
)

func startRouter(t *testing.T) *core.Router {
	t.Helper()
	r, err := core.NewRouter(core.Config{
		AS:         65000,
		ID:         netaddr.MustParseAddr("10.255.0.1"),
		ListenAddr: "127.0.0.1:0",
		Neighbors: []core.NeighborConfig{
			{AS: 65001},
			{AS: 65002},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

func TestConnectAndAnnounce(t *testing.T) {
	r := startRouter(t)
	sp := New(Config{AS: 65001, ID: netaddr.MustParseAddr("1.1.1.1"), Target: r.ListenAddr()})
	if err := sp.Connect(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer sp.Stop()

	routes := core.GenerateTable(core.TableGenConfig{N: 500, Seed: 3, FirstAS: 65001})
	if err := sp.Announce(routes, 100); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.FIB().Len() < 500 {
		if time.Now().After(deadline) {
			t.Fatalf("router learned %d/500 routes", r.FIB().Len())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConnectTimeout(t *testing.T) {
	// Dial a black-hole target: connection refused quickly, so Connect
	// must fail rather than hang.
	sp := New(Config{AS: 65001, ID: netaddr.MustParseAddr("1.1.1.1"), Target: "127.0.0.1:1"})
	err := sp.Connect(500 * time.Millisecond)
	if err == nil {
		sp.Stop()
		t.Fatal("Connect to dead target succeeded")
	}
}

func TestWaitForPrefixesPhase2(t *testing.T) {
	r := startRouter(t)
	sp1 := New(Config{AS: 65001, ID: netaddr.MustParseAddr("1.1.1.1"), Target: r.ListenAddr()})
	if err := sp1.Connect(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer sp1.Stop()
	routes := core.GenerateTable(core.TableGenConfig{N: 300, Seed: 4, FirstAS: 65001})
	if err := sp1.Announce(routes, 100); err != nil {
		t.Fatal(err)
	}

	sp2 := New(Config{AS: 65002, ID: netaddr.MustParseAddr("2.2.2.2"), Target: r.ListenAddr()})
	if err := sp2.Connect(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer sp2.Stop()
	if err := sp2.WaitForPrefixes(300, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if sp2.UpdatesReceived() == 0 {
		t.Fatal("no update messages counted")
	}
}

func TestWithdrawAndWaitForWithdrawals(t *testing.T) {
	r := startRouter(t)
	sp1 := New(Config{AS: 65001, ID: netaddr.MustParseAddr("1.1.1.1"), Target: r.ListenAddr()})
	if err := sp1.Connect(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer sp1.Stop()
	sp2 := New(Config{AS: 65002, ID: netaddr.MustParseAddr("2.2.2.2"), Target: r.ListenAddr()})
	if err := sp2.Connect(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer sp2.Stop()

	routes := core.GenerateTable(core.TableGenConfig{N: 200, Seed: 5, FirstAS: 65001})
	if err := sp1.Announce(routes, 50); err != nil {
		t.Fatal(err)
	}
	if err := sp2.WaitForPrefixes(200, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sp1.Withdraw(routes, 50); err != nil {
		t.Fatal(err)
	}
	if err := sp2.WaitForWithdrawals(200, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestWaitForPrefixesTimesOut(t *testing.T) {
	r := startRouter(t)
	sp := New(Config{AS: 65001, ID: netaddr.MustParseAddr("1.1.1.1"), Target: r.ListenAddr()})
	if err := sp.Connect(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer sp.Stop()
	if err := sp.WaitForPrefixes(1, 50*time.Millisecond); err == nil {
		t.Fatal("WaitForPrefixes should time out with no traffic")
	}
	if err := sp.WaitForWithdrawals(1, 50*time.Millisecond); err == nil {
		t.Fatal("WaitForWithdrawals should time out with no traffic")
	}
}

func TestConfigDefaults(t *testing.T) {
	sp := New(Config{AS: 65001, ID: netaddr.MustParseAddr("9.9.9.9"), Target: "127.0.0.1:1"})
	if sp.cfg.HoldTime != 90 {
		t.Errorf("default hold time = %d", sp.cfg.HoldTime)
	}
	if sp.cfg.NextHop != sp.cfg.ID {
		t.Errorf("default next hop = %v", sp.cfg.NextHop)
	}
	if sp.cfg.Name == "" {
		t.Error("default name empty")
	}
}
