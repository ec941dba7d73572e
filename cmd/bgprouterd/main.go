// Command bgprouterd runs this repository's live BGP router as a
// standalone daemon: it listens for BGP sessions, maintains RIBs and a
// FIB, and prints periodic statistics. Point benchmark speakers (or any
// RFC 4271 implementation) at it.
//
//	bgprouterd -listen 127.0.0.1:1790 -as 65000 -id 10.0.0.1 -neighbors 65001,65002
//	bgprouterd -config router.conf
//	bgprouterd -chaos lossy-reorder -chaos-seed 7   # fault-injected listener
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bgpbench/internal/config"
	"bgpbench/internal/core"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/netem"
	"bgpbench/internal/status"
)

func main() {
	configPath := flag.String("config", "", "configuration file (overrides the individual flags; see internal/config)")
	listen := flag.String("listen", "127.0.0.1:1790", "address to accept BGP sessions on")
	as := flag.Uint("as", 65000, "local autonomous system number")
	id := flag.String("id", "10.0.0.1", "BGP identifier (IPv4)")
	neighbors := flag.String("neighbors", "65001,65002", "comma-separated neighbour AS numbers to accept")
	fib := flag.String("fib", "patricia", "FIB engine: linear, binary, patricia, hashlen, poptrie")
	shards := flag.Int("shards", 0, "decision-worker shard count (0 = GOMAXPROCS)")
	updateGroups := flag.Bool("update-groups", false, "bucket peers by export policy into update groups: compute and marshal each emission run once per group and fan the bytes out (route-server mode; also the 'update-groups' config directive)")
	statsEvery := flag.Duration("stats", 5*time.Second, "statistics print interval (0 disables)")
	httpAddr := flag.String("http", "", "serve /status, /fib, /metrics on this address (empty disables)")
	chaos := flag.String("chaos", "", "wrap the BGP listener in this netem fault profile (empty disables)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-schedule seed for -chaos")
	flag.Parse()

	var cfg core.Config
	if *configPath != "" {
		text, err := os.ReadFile(*configPath)
		if err != nil {
			fatal(err)
		}
		cfg, err = config.Parse(string(text))
		if err != nil {
			fatal(err)
		}
	} else {
		routerID, err := netaddr.ParseAddr(*id)
		if err != nil {
			fatal(err)
		}
		var ncfgs []core.NeighborConfig
		for _, part := range strings.Split(*neighbors, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			n, err := strconv.ParseUint(part, 10, 32)
			if err != nil {
				fatal(fmt.Errorf("bad neighbour AS %q: %v", part, err))
			}
			ncfgs = append(ncfgs, core.NeighborConfig{AS: uint32(n)})
		}
		cfg = core.Config{
			AS:           uint32(*as),
			ID:           routerID,
			ListenAddr:   *listen,
			Neighbors:    ncfgs,
			FIBEngine:    *fib,
			Shards:       *shards,
			UpdateGroups: *updateGroups,
		}
	}
	if len(cfg.Neighbors) == 0 {
		fatal(fmt.Errorf("no neighbours configured"))
	}

	// Fault injection on every accepted session: the daemon runs on the
	// real clock, so latency/stall shaping costs wall time.
	var inj *netem.Injector
	if *chaos != "" {
		profile, ok := netem.ProfileByName(*chaos)
		if !ok {
			fatal(fmt.Errorf("unknown fault profile %q (known: %s)",
				*chaos, strings.Join(netem.ProfileNames(), ", ")))
		}
		profile.Seed = *chaosSeed
		inj = netem.NewInjector(profile, netem.NewRealClock())
		cfg.ListenWrap = func(ln net.Listener) net.Listener {
			return inj.WrapListener(ln, "bgprouterd")
		}
	}

	router, err := core.NewRouter(cfg)
	if err != nil {
		fatal(err)
	}
	if err := router.Start(); err != nil {
		fatal(err)
	}
	fmt.Printf("bgprouterd: AS %d, ID %s, listening on %s, %d neighbours, fib=%s\n",
		cfg.AS, cfg.ID, router.ListenAddr(), len(cfg.Neighbors), cfg.FIBEngine)
	fmt.Printf("bgprouterd: %d shards\n", router.Shards())
	if router.UpdateGroupsEnabled() {
		fmt.Println("bgprouterd: update groups enabled (bgp_update_group_* counters on /metrics)")
	}
	if inj != nil {
		fmt.Printf("bgprouterd: chaos profile %q, seed %d (netem_* counters on /metrics)\n",
			*chaos, *chaosSeed)
	}
	if *httpAddr != "" {
		go func() {
			fmt.Printf("bgprouterd: status endpoint on http://%s/status\n", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, status.HandlerWithFaults(router, cfg.AS, inj)); err != nil {
				fmt.Fprintln(os.Stderr, "bgprouterd: http:", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var tick <-chan time.Time
	if *statsEvery > 0 {
		t := time.NewTicker(*statsEvery)
		defer t.Stop()
		tick = t.C
	}
	lastTx := uint64(0)
	lastAt := time.Now()
	for {
		select {
		case <-stop:
			fmt.Println("\nbgprouterd: shutting down")
			router.Stop()
			return
		case <-tick:
			tx := router.Transactions()
			now := time.Now()
			rate := float64(tx-lastTx) / now.Sub(lastAt).Seconds()
			lastTx, lastAt = tx, now
			fmt.Printf("stats: transactions=%d (%.0f/s) fib=%d entries (%d changes)\n",
				tx, rate, router.FIB().Len(), router.FIBChanges())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bgprouterd:", err)
	os.Exit(1)
}
