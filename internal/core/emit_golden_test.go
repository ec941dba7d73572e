package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"testing"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/emission_golden.json from this run")

const emissionGoldenPath = "testdata/emission_golden.json"

// TestEmissionBytesGolden pins the UPDATE byte stream emitted for a fixed
// input with MRAI off under each group keying: a group per peer, and
// groups by export treatment (a clean stream plus a dirty member's own).
// The pinned values were generated at the commit that still had a table
// kind and an emission path per keying (PR 16); refresh them only for an
// intended wire change:
//
//	go test ./internal/core -run TestEmissionBytesGolden -update
func TestEmissionBytesGolden(t *testing.T) {
	got := make(map[string]string)
	for _, grouped := range []bool{false, true} {
		for id, sum := range emissionDigests(t, grouped) {
			got[fmt.Sprintf("grouped=%v/%s", grouped, id)] = sum
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(emissionGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(emissionGoldenPath)
	if err != nil {
		t.Fatalf("missing golden emission digests (run with -update): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d streams, golden has %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: emitted bytes drifted: got %s want %s", k, got[k], w)
		}
	}
}

// emissionDigests drives one router (one shard, no workers, no sockets)
// through a fixed churn script and returns, per receiving peer, the
// sha256 of everything queued to it, marshaled in queue order. The
// script covers every packing rule: runs longer than ExportBatch,
// attribute changes mid-batch, withdraw runs, a replacement whose new
// best comes from a receiver (a dirty member on the group table) and
// that receiver's teardown.
func emissionDigests(t *testing.T, grouped bool) map[string]string {
	t.Helper()
	r, err := NewRouter(Config{
		AS:           65000,
		ID:           netaddr.MustParseAddr("10.255.0.1"),
		Shards:       1,
		ExportBatch:  7,
		UpdateGroups: grouped,
		Neighbors: []NeighborConfig{
			{AS: 65001}, {AS: 65101}, {AS: 65102}, {AS: 65103, Export: medPolicy(1)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	feederID := netaddr.MustParseAddr("1.1.1.1")
	feeder := benchPeer(r, feederID, 65001, nil)
	ids := []netaddr.Addr{
		netaddr.AddrFrom4(10, 9, 0, 1), netaddr.AddrFrom4(10, 9, 0, 2), netaddr.AddrFrom4(10, 9, 0, 3),
	}
	recv := []*peerState{
		benchPeer(r, ids[0], 65101, nil),
		benchPeer(r, ids[1], 65102, nil),
		benchPeer(r, ids[2], 65103, medPolicy(1)),
	}
	sums := make([]hash.Hash, len(recv))
	for i := range sums {
		sums[i] = sha256.New()
	}
	s := r.shards[0]
	step := func(ps *peerState, us []wire.Update) {
		r.processUpdateBatch(0, ps, us)
		for len(s.catchups) > 0 {
			r.runCatchupChunk(0, s)
		}
		for i, rc := range recv {
			for _, m := range take(rc) {
				if shared, ok := m.([]byte); ok {
					sums[i].Write(shared)
					continue
				}
				b, err := wire.Marshal(m.(wire.Message))
				if err != nil {
					t.Fatal(err)
				}
				sums[i].Write(b)
			}
		}
	}

	table := GenerateTable(TableGenConfig{N: 96, Seed: 11, FirstAS: 65001, AttrGroups: 8})
	longer := make([]Route, len(table))
	for i, rt := range table {
		longer[i] = Lengthen(rt, 65001, 2, 7)
	}
	// One attribute block over 40 prefixes (chunks at ExportBatch), then
	// the table's own mixed blocks one prefix per message.
	step(feeder, Updates(UniformPath(table[:40], wire.NewASPath(65001, 70, 71)), feederID, 40))
	step(feeder, Updates(table[40:], feederID, 1))
	// Replace, withdraw and re-announce inside one batch.
	mixed := Updates(longer[:24], feederID, 3)
	mixed = append(mixed, Withdrawals(table[24:50], 5)...)
	mixed = append(mixed, Updates(table[30:44], feederID, 2)...)
	step(feeder, mixed)
	// A receiver originates shorter paths for a slice: it must see
	// withdrawals where the others see replacements.
	shorter := make([]Route, 0, 20)
	for _, rt := range table[50:70] {
		shorter = append(shorter, Shorten(rt, 65101))
	}
	step(recv[0], Updates(shorter, ids[0], 4))
	step(recv[0], Withdrawals(shorter[:10], 10))
	step(feeder, Withdrawals(table[60:], 50))

	out := make(map[string]string, len(recv))
	for i, id := range ids {
		out[id.String()] = hex.EncodeToString(sums[i].Sum(nil))
	}
	return out
}
