package main

import (
	"crypto/sha256"
	"sort"

	"bgpbench/internal/core"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/wire"
)

// The paper's Fig. 1 topology: one router under test between an injecting
// speaker and a receiving one.
const (
	routerAS   = 65000
	injectorAS = 65001
	receiverAS = 65002
)

var (
	routerID   = netaddr.MustParseAddr("10.255.0.1")
	injectorID = netaddr.MustParseAddr("1.1.1.1")
	receiverID = netaddr.MustParseAddr("2.2.2.2")
)

// workload is one set of inputs and the router configuration it runs
// against. Every workload runs the same three parts — closed-loop
// announce-all/withdraw-all cycles, an open-loop paced pass, and an untimed
// verification cycle — so every end-to-end metric exists on each of them;
// what differs is which layers the stream makes work.
type workload struct {
	name string
	// prefixes is the table size N.
	prefixes int
	// dfz draws AS paths from a Zipf-shared pool of ~N/50 paths instead of
	// giving the whole table one path.
	dfz bool
	// perUpdate is the packing of injected UPDATEs: 1 (the paper's small
	// packets) or 500 (large packets; only routes sharing a path pack).
	perUpdate int
	// receiver attaches the second session, so the router exports.
	receiver bool
	// losers makes the timed stream come from the receiver session as
	// longer-path duplicates of a table the injector preloaded: every
	// prefix runs the decision process and none changes the Loc-RIB.
	losers bool
	// policies adds an import and an export route-map and turns update
	// groups on (the receiver is then a singleton group).
	policies bool
	// pacedRate is the open-loop rate in prefixes/s, about a tenth of the
	// workload's saturated throughput on the 2-core reference host.
	pacedRate float64
}

var workloads = []workload{
	{
		// Per-message cost (read, parse, coalesce, dispatch) and FIB
		// insert/delete dominate; export, marshal, socket write and policy do
		// no work.
		name:      "startup_small",
		prefixes:  100_000,
		perUpdate: 1,
		pacedRate: 20_000,
	},
	{
		// Per-prefix cost dominates; only here do policy, grouped emission,
		// the marshal cache and slabs work.
		name:      "transit_large",
		prefixes:  400_000,
		dfz:       true,
		perUpdate: 500,
		receiver:  true,
		policies:  true,
		pacedRate: 50_000,
	},
	{
		// Parse, dispatch and decision run but Loc-RIB, FIB and Adj-RIB-Out
		// never change: a FIB or emission change must show nothing here.
		name:      "nochange_small",
		prefixes:  100_000,
		perUpdate: 1,
		receiver:  true,
		losers:    true,
		pacedRate: 20_000,
	},
	{
		// startup_small plus export and socket write through the default
		// ungrouped per-peer emission: the other side of the grouped/ungrouped
		// fork from transit_large.
		name:      "transit_small",
		prefixes:  100_000,
		perUpdate: 1,
		receiver:  true,
		pacedRate: 20_000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// byReceiver reports whether a phase completes when the receiver has seen
// every prefix (true) or when Router.Transactions() has counted them.
func (w workload) byReceiver() bool { return w.receiver && !w.losers }

// tableState is what a table looks like from outside: its size and a
// digest over its rows in prefix order.
type tableState struct {
	n      int
	digest [sha256.Size]byte
}

// rawUpdate is an UPDATE marshalled once, when the inputs are generated.
// The sessions send these instead of wire.Update values so that the
// in-process generator costs the router's CPUs a copy per message, not a
// marshal, and keeps no pointer-rich heap for the collector to walk.
type rawUpdate struct{ body []byte }

// Type implements wire.Message.
func (*rawUpdate) Type() wire.MsgType { return wire.MsgUpdate }

// AppendBody implements wire.Message.
func (r *rawUpdate) AppendBody(dst []byte) []byte { return append(dst, r.body...) }

// pass is one direction of the stream: the UPDATEs, and cum[k] = prefixes
// carried by the messages before message k (len(msgs)+1 entries).
type pass struct {
	msgs []wire.Message
	cum  []int
}

// newPass marshals us the way a session that negotiated 4-octet AS numbers
// does (every session here does; start checks it).
func newPass(us []wire.Update) pass {
	p := pass{msgs: make([]wire.Message, len(us)), cum: make([]int, len(us)+1)}
	var all []byte
	ends := make([]int, len(us))
	for k, u := range us {
		p.cum[k+1] = p.cum[k] + len(u.NLRI) + len(u.Withdrawn)
		var err error
		if all, err = wire.AppendMessageMode(all, u, true); err != nil {
			panic(err) // core.Updates keeps messages under the size limit
		}
		ends[k] = len(all)
	}
	// Bodies are cut only now that all has stopped moving.
	raws := make([]rawUpdate, len(us))
	from := 0
	for k, end := range ends {
		raws[k].body = all[from+wire.HeaderLen : end : end]
		p.msgs[k] = &raws[k]
		from = end
	}
	return p
}

func (p pass) prefixes() int { return p.cum[len(p.msgs)] }

// head is the longest message-aligned prefix of the pass carrying at most
// m prefixes (and at least one message).
func (p pass) head(m int) pass {
	k := sort.SearchInts(p.cum, m+1) - 1
	if k < 1 {
		k = 1
	}
	return pass{msgs: p.msgs[:k], cum: p.cum[:k+1]}
}

// inputs is everything generated from the seed before the router exists:
// the streams the sessions send and the states the router must reach.
type inputs struct {
	w workload
	// table is what the injector's side of the network looks like: the
	// generated routes, which the expected states are computed from.
	table []core.Route
	// routes is the timed stream in send order; nextHop what it is sent with.
	routes  []core.Route
	nextHop netaddr.Addr
	// preload is what the injector installs during set-up (losers only).
	preload pass
	// announce and withdraw each carry the whole table once.
	announce, withdraw pass
	// position maps a prefix to its index in routes, so the receiver can
	// look up when a re-advertised prefix was due. Receiver workloads only.
	position map[netaddr.Prefix]int32

	importMap, exportMap *policy.RouteMap

	// locFull / locEmpty are the Loc-RIB after an announce pass and after a
	// withdraw pass; recvFull is what the receiver must hold after an
	// announce pass (after a withdraw pass it must hold nothing).
	locFull, locEmpty, recvFull tableState
}

func basePath() wire.ASPath { return wire.NewASPath(injectorAS, 100, 101, 102) }

// loserPath is basePath seen through the receiver's AS and two hops
// longer, so it loses the decision on AS-path length.
func loserPath() wire.ASPath { return wire.NewASPath(receiverAS, 200, 201, 100, 101, 102) }

func buildInputs(w workload, seed int64) *inputs {
	in := &inputs{w: w}
	cfg := core.TableGenConfig{N: w.prefixes, Seed: seed, FirstAS: injectorAS}
	if w.dfz {
		cfg.AttrGroups = w.prefixes / 50
		if cfg.AttrGroups < 16 {
			cfg.AttrGroups = 16
		}
	}
	table := core.GenerateTable(cfg)
	if !w.dfz {
		table = core.UniformPath(table, basePath())
	}
	if w.policies {
		in.importMap, in.exportMap = importPolicy(), exportPolicy()
	}

	in.table, in.routes, in.nextHop = table, table, injectorID
	if w.losers {
		in.preload = newPass(core.Updates(table, injectorID, 500))
		in.routes, in.nextHop = core.UniformPath(table, loserPath()), receiverID
	}
	in.announce = newPass(core.Updates(in.routes, in.nextHop, w.perUpdate))
	in.withdraw = newPass(core.Withdrawals(in.routes, w.perUpdate))
	if w.byReceiver() {
		in.position = make(map[netaddr.Prefix]int32, len(in.routes))
		for i, r := range in.routes {
			in.position[r.Prefix] = int32(i)
		}
	}

	// Expected states, computed from the table with policy alone: what
	// the injector's routes look like after import, and after export to an
	// eBGP peer (own-AS prepend, next-hop-self, no LOCAL_PREF).
	loc := make([]row, 0, len(table))
	var recv []row
	for _, r := range table {
		a, ok := in.importMap.Apply(r.Prefix, wire.NewPathAttrs(wire.OriginIGP, r.Path, injectorID))
		if !ok {
			continue
		}
		loc = append(loc, row{r.Prefix, wire.MarshalAttrs(a)})
		if !w.byReceiver() {
			continue
		}
		if a, ok = in.exportMap.Apply(r.Prefix, a); ok {
			a.ASPath = a.ASPath.Prepend(routerAS)
			a.NextHop, a.HasNextHop = routerID, true
			a.HasLocalPref, a.LocalPref = false, 0
			recv = append(recv, row{r.Prefix, wire.MarshalAttrs(a)})
		}
	}
	in.locFull = stateOf(loc)
	in.recvFull = stateOf(recv)
	if w.losers {
		in.locEmpty = in.locFull // the preloaded table stays
	} else {
		in.locEmpty = stateOf(nil)
	}
	return in
}

// paced cuts the open-loop sub-stream: the head of the announce pass
// carrying at most m prefixes, and the withdrawals of exactly those.
func (in *inputs) paced(m int) (announce, withdraw pass) {
	announce = in.announce.head(m)
	return announce, newPass(core.Withdrawals(in.routes[:announce.prefixes()], in.w.perUpdate))
}

// updates rebuilds one announce pass and one withdraw pass as wire.Update
// values, for the staged replay to hand to the layers.
func (in *inputs) updates() []wire.Update {
	return append(core.Updates(in.routes, in.nextHop, in.w.perUpdate), core.Withdrawals(in.routes, in.w.perUpdate)...)
}

// importPolicy prefers (LOCAL_PREF 200) short paths learned from the
// injector inside a quarter of the address space and permits the rest
// unchanged: a prefix-list and an AS-path condition are evaluated for
// every route, and the Set clones attributes for those that match.
func importPolicy() *policy.RouteMap {
	lp := uint32(200)
	return &policy.RouteMap{
		Name: "bench-import",
		Terms: []policy.Term{{
			Name: "prefer-short-sliver",
			Match: policy.Match{
				PrefixList: &policy.PrefixList{Name: "bench-import-sliver", Rules: []policy.PrefixRule{{
					Prefix: netaddr.PrefixFrom(netaddr.AddrFrom4(128, 0, 0, 0), 2), GE: 2, Action: policy.Permit,
				}}},
				ASPath: &policy.ASPathCond{NeighborAS: injectorAS, MaxLen: 3},
			},
			Set:    policy.Set{LocalPref: &lp},
			Action: policy.Permit,
		}},
		DefaultPermit: true,
	}
}

// exportPolicy is the sliver-MED map `bgpbench fanout` gives its groups:
// MED 1000 on 64.0.0.0/6 and longer, everything else unchanged.
func exportPolicy() *policy.RouteMap {
	med := uint32(1000)
	return &policy.RouteMap{
		Name: "bench-export",
		Terms: []policy.Term{{
			Name: "sliver-med",
			Match: policy.Match{PrefixList: &policy.PrefixList{Name: "bench-export-sliver", Rules: []policy.PrefixRule{{
				Prefix: netaddr.PrefixFrom(netaddr.AddrFrom4(64, 0, 0, 0), 6), GE: 6, Action: policy.Permit,
			}}}},
			Set:    policy.Set{MED: &med},
			Action: policy.Permit,
		}},
		DefaultPermit: true,
	}
}

// row is one table entry as the digests see it: the prefix and the
// canonical encoding of its attributes.
type row struct {
	prefix netaddr.Prefix
	attrs  []byte
}

// stateOf sorts rows by prefix (in place) and digests them.
func stateOf(rows []row) tableState {
	sort.Slice(rows, func(i, j int) bool { return rows[i].prefix.Compare(rows[j].prefix) < 0 })
	h := sha256.New()
	var buf []byte
	for _, r := range rows {
		buf = r.prefix.AppendWire(buf[:0])
		buf = append(buf, r.attrs...)
		h.Write(buf)
	}
	st := tableState{n: len(rows)}
	h.Sum(st.digest[:0])
	return st
}
