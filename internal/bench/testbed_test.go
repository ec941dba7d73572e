package bench

import (
	"testing"
	"time"

	"bgpbench/internal/netem"
	"bgpbench/internal/session"
	"bgpbench/internal/wire"
)

// handshakeLen is how many bytes a speaker of AS as writes to bring its
// session up: its OPEN with the default capabilities, then a KEEPALIVE.
// The next byte it writes starts its first UPDATE.
func handshakeLen(t *testing.T, as uint32) int64 {
	t.Helper()
	open := wire.NewOpen(as, 90, speaker2ID)
	caps, err := wire.MarshalCapabilities(session.DefaultCapabilities(as))
	if err != nil {
		t.Fatal(err)
	}
	open.OptParams = caps
	n := 0
	for _, m := range []wire.Message{open, wire.Keepalive{}} {
		b, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		n += len(b)
	}
	return int64(n)
}

// TestSettleOutlastsSenderStall: silence is not convergence. Speaker 2's
// write stream stalls for 500 ms right before its first Phase-3 UPDATE —
// twice the 250 ms quiet window an idle-based settle would accept, while
// the Loc-RIB already holds as many routes as Phase 3 leaves behind — and
// the run must still settle to the state of a run without the stall.
func TestSettleOutlastsSenderStall(t *testing.T) {
	scn := Scenarios[6] // incremental-change: Phase 3 moves every best path
	table, err := familyTable(AFIv4, 200, conformanceSeed)
	if err != nil {
		t.Fatal(err)
	}
	const stall = 500 * time.Millisecond
	run := func(inj *netem.Injector) string {
		tb, err := startTestbed(testbedConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.stop()
		// Only Speaker 2, which connects inside runPhases, dials through
		// the injector.
		tb.cfg.Inj = inj
		err = runPhases(scn, tb, table, conformanceSeed, 30*time.Second, func(run func() error) error {
			if inj == nil {
				return run()
			}
			if n := inj.Stats().Stalls; n != 0 {
				t.Fatalf("stall fired before Phase 3 (%d)", n)
			}
			start := time.Now()
			if err := run(); err != nil {
				return err
			}
			if d := time.Since(start); inj.Stats().Stalls != 1 || d < stall {
				t.Fatalf("Phase 3 settled after %v with %d stalls; want one %v stall inside it", d, inj.Stats().Stalls, stall)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		loc, _ := digestLocRIB(tb.router.DumpLocRIB())
		return loc + " " + digestFIB(tb.router)
	}
	clean := run(nil)
	h := handshakeLen(t, liveSpeaker2AS)
	stalled := run(netem.NewInjector(netem.Profile{
		Name:        "phase3-stall",
		StallEvents: 1,
		StallFor:    stall,
		MinOffset:   h,
		Horizon:     h + 1,
	}, netem.NewRealClock()))
	if stalled != clean {
		t.Fatalf("stalled run settled to %s, clean run to %s", stalled, clean)
	}
}
