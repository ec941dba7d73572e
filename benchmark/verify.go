package main

import (
	"fmt"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// check compares the router's tables, read through its public getters, and
// what the receiver holds against the states computed from the generated
// table. Each returned string is one failed assertion.
func (h *harness) check(loc, recv tableState, held map[netaddr.Prefix][]byte) []string {
	var bad []string
	if got := h.r.RIBLen(); got != loc.n {
		bad = append(bad, fmt.Sprintf("RIBLen() = %d, want %d", got, loc.n))
	}
	if got := h.r.FIB().Len(); got != loc.n {
		bad = append(bad, fmt.Sprintf("FIB().Len() = %d, want %d", got, loc.n))
	}
	// Loc-RIB attributes are interned: encode each distinct set once.
	encoded := make(map[*wire.PathAttrs][]byte)
	dump := h.r.DumpLocRIB()
	rows := make([]row, len(dump))
	for i, lr := range dump {
		b, ok := encoded[lr.Attrs]
		if !ok {
			b = wire.MarshalAttrs(*lr.Attrs)
			encoded[lr.Attrs] = b
		}
		rows[i] = row{lr.Prefix, b}
	}
	if got := stateOf(rows); got != loc {
		bad = append(bad, fmt.Sprintf("Loc-RIB digest %x over %d routes, want %x over %d", got.digest[:6], got.n, loc.digest[:6], loc.n))
	}
	if held != nil {
		rows = rows[:0]
		for p, a := range held {
			rows = append(rows, row{p, a})
		}
		if got := stateOf(rows); got != recv {
			bad = append(bad, fmt.Sprintf("receiver holds digest %x over %d routes, want %x over %d", got.digest[:6], got.n, recv.digest[:6], recv.n))
		}
	}
	return bad
}
