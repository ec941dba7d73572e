package analysis

import "go/types"

// FactStore carries analyzer facts across packages within one
// RunAnalyzers invocation. Packages are analyzed in dependency order
// (Load returns them that way), so an analyzer visiting
// internal/fib can read facts an earlier pass exported while visiting
// internal/netaddr — this is how readpurity knows that a netaddr helper
// is pure, without re-walking the other package's bodies.
//
// Facts are keyed by (analyzer, types.Object, key). Object identity is
// stable across packages because the whole load shares one type-checker
// universe: the *types.Func an importing package resolves is the same
// object the defining package exported the fact under.
type FactStore struct {
	m map[factKey]any
}

type factKey struct {
	analyzer string
	obj      types.Object
	key      string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[factKey]any{}}
}

// ExportObjectFact records a fact about obj under the calling
// analyzer's namespace. Later passes (same analyzer, any package)
// read it back with ObjectFact.
func (p *Pass) ExportObjectFact(obj types.Object, key string, val any) {
	if obj == nil || p.Facts == nil {
		return
	}
	p.Facts.m[factKey{p.Analyzer.Name, obj, key}] = val
}

// ObjectFact reads a fact exported for obj by this analyzer in this or
// an earlier (dependency) package pass.
func (p *Pass) ObjectFact(obj types.Object, key string) (any, bool) {
	if obj == nil || p.Facts == nil {
		return nil, false
	}
	v, ok := p.Facts.m[factKey{p.Analyzer.Name, obj, key}]
	return v, ok
}
