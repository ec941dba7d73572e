package wire

import (
	"sync"
	"sync/atomic"
)

// Intern is a concurrency-safe deduplication table for path attribute
// blocks. Real routing tables carry a few thousand distinct attribute sets
// across hundreds of thousands of prefixes, so storing one canonical
// *PathAttrs per distinct path — keyed by the canonical wire encoding —
// collapses the memory footprint of the RIBs and turns the deep
// PathAttrs.Equal comparisons on the router's hot paths (Adj-RIB-Out
// dedupe, export batching, MRAI grouping) into pointer comparisons: two
// interned attribute sets are semantically equal iff their pointers are
// equal.
//
// Callers must treat interned attribute sets as immutable; the table hands
// out the same pointer to every caller that interns an equal block.
type Intern struct {
	mu sync.RWMutex
	m  map[string]*PathAttrs

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewIntern returns an empty intern table.
func NewIntern() *Intern {
	return &Intern{m: make(map[string]*PathAttrs)}
}

// Intern returns the canonical pointer for a, inserting a deep copy on
// first sight. Safe for concurrent use.
func (t *Intern) Intern(a PathAttrs) *PathAttrs {
	// The key is the canonical block MarshalAttrs produces.
	key := a.appendWireMode(make([]byte, 0, 64), false, nil, nil)
	t.mu.RLock()
	p := t.m[string(key)]
	t.mu.RUnlock()
	if p != nil {
		t.hits.Add(1)
		return p
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.m[string(key)]; p != nil {
		t.hits.Add(1)
		return p
	}
	t.misses.Add(1)
	// Clone so the canonical copy cannot alias caller-owned slices.
	c := a.Clone()
	t.m[string(key)] = &c
	return &c
}

// Len returns the number of distinct attribute sets interned.
func (t *Intern) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// InternStats is a snapshot of an intern table's effectiveness.
type InternStats struct {
	Size   int    // distinct attribute sets held
	Hits   uint64 // lookups answered by an existing canonical copy
	Misses uint64 // lookups that inserted a new canonical copy
}

// HitRate returns the fraction of lookups answered from the table.
func (s InternStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns current counters.
func (t *Intern) Stats() InternStats {
	return InternStats{Size: t.Len(), Hits: t.hits.Load(), Misses: t.misses.Load()}
}
