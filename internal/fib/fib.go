// Package fib implements the forwarding information base: longest-prefix-
// match lookup structures mapping IPv4 destination addresses to next hops.
//
// Five interchangeable engines are provided, spanning the classic design
// space surveyed by Ruiz-Sanchez et al. (IEEE Network 2001) — which the
// paper's forwarding path depends on — plus one modern successor:
//
//   - Linear: sorted linear scan; the obviously-correct reference used by
//     the property tests and the baseline in lookup benchmarks.
//   - BinaryTrie: one bit per level, the textbook structure.
//   - Patricia: path-compressed binary trie under a direct-index /16 root
//     directory, so one slot load replaces the top sixteen levels of
//     every descent; the router's default engine, cheapest to write.
//   - HashLengths: one hash table per prefix length, probed longest-first.
//   - Poptrie: level-compressed multibit trie with popcount-indexed
//     children and a direct-index /16 root stride; cache-compact lookups
//     and cheap copy-on-write snapshots.
//
// Engines are not safe for concurrent use. Table adds the RWMutex wrapper
// the router's data plane and control plane share; SnapshotTable does the
// same for snapshot-capable engines with a lock-free read path, and
// NewShared picks the right wrapper for an engine.
package fib

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bgpbench/internal/netaddr"
)

// Entry is the forwarding action for a destination prefix.
type Entry struct {
	NextHop netaddr.Addr // next-hop router address
	Port    int          // egress interface index
}

// Op is one mutation in a batched FIB commit: an insert/replace of Entry
// for Prefix, or a delete when Delete is set.
type Op struct {
	Prefix netaddr.Prefix
	Entry  Entry
	Delete bool
}

// Engine is a longest-prefix-match structure. Implementations are
// single-goroutine; wrap with Table for shared use.
type Engine interface {
	// Insert adds or replaces the entry for a prefix.
	Insert(p netaddr.Prefix, e Entry)
	// Delete removes a prefix, reporting whether it was present.
	Delete(p netaddr.Prefix) bool
	// Apply performs a batch of mutations in order. Equivalent to calling
	// Insert/Delete per op; engines may restructure once per batch instead
	// of once per op.
	Apply(ops []Op)
	// Lookup returns the entry of the longest prefix containing addr.
	Lookup(addr netaddr.Addr) (Entry, bool)
	// LookupExact returns the entry stored for exactly this prefix.
	LookupExact(p netaddr.Prefix) (Entry, bool)
	// Len returns the number of installed prefixes.
	Len() int
	// Walk visits all entries in unspecified order until fn returns false.
	Walk(fn func(netaddr.Prefix, Entry) bool)
}

// applyOps is the generic per-op batch implementation engines delegate to
// when they have no cheaper bulk restructuring.
func applyOps(eng Engine, ops []Op) {
	for _, op := range ops {
		if op.Delete {
			eng.Delete(op.Prefix)
		} else {
			eng.Insert(op.Prefix, op.Entry)
		}
	}
}

// EngineNames lists the selectable engine implementations.
var EngineNames = []string{"linear", "binary", "patricia", "hashlen", "poptrie"}

// NewEngine constructs an engine by name.
func NewEngine(name string) (Engine, error) {
	switch name {
	case "linear":
		return NewLinear(), nil
	case "binary":
		return NewBinaryTrie(), nil
	case "patricia":
		return NewPatricia(), nil
	case "hashlen":
		return NewHashLengths(), nil
	case "poptrie":
		return NewPoptrie(), nil
	}
	return nil, fmt.Errorf("fib: unknown engine %q (have %v)", name, EngineNames)
}

// Table is a concurrency-safe FIB shared between the control plane (which
// installs and removes routes) and the data plane (which looks up
// destinations). It also counts updates and lookups so benchmark scenarios
// can verify which operations touched the forwarding table.
type Table struct {
	mu       sync.RWMutex
	eng      Engine
	updates  atomic.Uint64
	lookups  atomic.Uint64
	batches  atomic.Uint64 // Apply calls with at least one op
	batchOps atomic.Uint64 // total ops committed through Apply
}

// NewTable wraps an engine; a nil engine defaults to Patricia.
func NewTable(eng Engine) *Table {
	if eng == nil {
		eng = NewPatricia()
	}
	return &Table{eng: eng}
}

// Insert adds or replaces a route.
func (t *Table) Insert(p netaddr.Prefix, e Entry) {
	t.mu.Lock()
	t.eng.Insert(p, e)
	t.mu.Unlock()
	t.updates.Add(1)
}

// Delete removes a route, reporting whether it was present.
func (t *Table) Delete(p netaddr.Prefix) bool {
	t.mu.Lock()
	ok := t.eng.Delete(p)
	t.mu.Unlock()
	t.updates.Add(1)
	return ok
}

// Apply commits a batch of route changes under one write-lock round-trip
// instead of per-prefix lock acquisitions — the control plane's bulk
// commit path for a burst of decision-process changes.
func (t *Table) Apply(ops []Op) {
	if len(ops) == 0 {
		return
	}
	t.mu.Lock()
	t.eng.Apply(ops)
	t.mu.Unlock()
	t.updates.Add(uint64(len(ops)))
	t.batches.Add(1)
	t.batchOps.Add(uint64(len(ops)))
}

// Lookup resolves a destination address.
func (t *Table) Lookup(addr netaddr.Addr) (Entry, bool) {
	t.lookups.Add(1)
	t.mu.RLock()
	e, ok := t.eng.Lookup(addr)
	t.mu.RUnlock()
	return e, ok
}

// LookupExact returns the entry stored for exactly this prefix.
func (t *Table) LookupExact(p netaddr.Prefix) (Entry, bool) {
	t.mu.RLock()
	e, ok := t.eng.LookupExact(p)
	t.mu.RUnlock()
	return e, ok
}

// Len returns the number of installed prefixes.
func (t *Table) Len() int {
	t.mu.RLock()
	n := t.eng.Len()
	t.mu.RUnlock()
	return n
}

// Walk visits all entries while holding the read lock; fn must not call
// back into the table.
func (t *Table) Walk(fn func(netaddr.Prefix, Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.eng.Walk(fn)
}

// Updates returns the count of Insert+Delete operations since creation.
func (t *Table) Updates() uint64 { return t.updates.Load() }

// Lookups returns the count of Lookup operations since creation.
func (t *Table) Lookups() uint64 { return t.lookups.Load() }

// BatchStats returns the number of batched commits and the total ops they
// carried; ops/batches is the mean batch size.
func (t *Table) BatchStats() (batches, ops uint64) {
	return t.batches.Load(), t.batchOps.Load()
}
