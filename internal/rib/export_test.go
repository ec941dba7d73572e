package rib

// NewSeeded is New with the prefix index's hash seed fixed, so a test
// of the index's layout is repeatable.
func NewSeeded(seed uint64) *RIB {
	r := New()
	r.index = newPrefixIndex(seed)
	return r
}

// MaxProbe returns the longest probe sequence in r's prefix index.
func (r *RIB) MaxProbe() int { return r.index.maxProbe() }
