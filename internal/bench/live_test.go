package bench

import (
	"testing"
	"time"
)

func liveCfg() LiveConfig {
	return LiveConfig{TableSize: 2000, Seed: 11, Timeout: 60 * time.Second}
}

func TestRunLiveAllScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("live benchmark takes seconds")
	}
	for _, scn := range Scenarios {
		scn := scn
		t.Run(scn.String(), func(t *testing.T) {
			res, err := RunLive(scn, liveCfg())
			if err != nil {
				t.Fatal(err)
			}
			if res.Prefixes != 2000 {
				t.Errorf("prefixes = %d", res.Prefixes)
			}
			if res.TPS <= 0 {
				t.Errorf("tps = %v", res.TPS)
			}
			t.Logf("%s: %.0f tps (%.3fs)", scn, res.TPS, res.Duration.Seconds())
			// FIB-change accounting: start-up installs, no-change must not
			// add changes in phase 3 (checked inside RunLive), replacement
			// must roughly double the change count.
			if scn.Op == OpIncrementalChange && res.FIBChanges < 2*2000 {
				t.Errorf("replacement scenario recorded only %d FIB changes", res.FIBChanges)
			}
		})
	}
}

// TestRunLiveUnderFaults: a live run over flapping transports replays
// journals, so its transaction count overshoots the table; every phase
// must still settle on its marker with the Loc-RIB size it must leave
// behind (RunLive fails otherwise).
func TestRunLiveUnderFaults(t *testing.T) {
	cfg := liveCfg()
	cfg.FaultProfile = "flap-reset"
	scn, _ := ScenarioByNum(8)
	res, err := RunLive(scn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 || res.Faults.Resets == 0 {
		t.Fatalf("no session flapped (retries=%d faults=%+v)", res.Retries, res.Faults)
	}
	if res.Prefixes != 2000 || res.TPS <= 0 {
		t.Errorf("prefixes = %d, tps = %v", res.Prefixes, res.TPS)
	}
}

func TestRunLiveWithCrossLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("live benchmark takes seconds")
	}
	cfg := liveCfg()
	cfg.CrossWorkers = 2
	scn, _ := ScenarioByNum(2)
	res, err := RunLive(scn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FwdPacketsPerSec <= 0 {
		t.Error("cross load reported zero forwarding throughput")
	}
	t.Logf("with cross-load: %.0f tps, %.0f pkts/s forwarded", res.TPS, res.FwdPacketsPerSec)
}

func TestRunLiveWithRateControlledCross(t *testing.T) {
	if testing.Short() {
		t.Skip("live benchmark takes seconds")
	}
	cfg := liveCfg()
	cfg.CrossPPS = 200000
	// The source offers packets on 1 ms ticks; at 2000 prefixes the
	// measured phase can end before the first one.
	cfg.TableSize = 20000
	scn, _ := ScenarioByNum(2)
	res, err := RunLive(scn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FwdPacketsPerSec <= 0 {
		t.Error("rate-controlled cross load reported zero throughput")
	}
	t.Logf("rate-controlled cross: %.0f tps, %.0f pkts/s", res.TPS, res.FwdPacketsPerSec)
}
