// Package policy implements BGP routing policy: prefix lists, AS-path and
// community filters, and route maps that match routes and transform their
// attributes. The paper notes that BGP route selection "is always
// policy-based"; this package is the mechanism the router applies on import
// (before the decision process) and on export (when building Adj-RIB-Out).
package policy

import (
	"fmt"
	"strings"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// Action is the disposition of a policy term.
type Action int

// Term dispositions.
const (
	Permit Action = iota
	Deny
)

// String names the action.
func (a Action) String() string {
	if a == Permit {
		return "permit"
	}
	return "deny"
}

// PrefixRule matches prefixes covered by Prefix whose length lies in
// [GE, LE]. With neither bound set the rule matches Prefix exactly. An
// unset GE defaults to Prefix's own length; an unset LE defaults to the
// family's full length (32 for IPv4, 128 for IPv6) when GE is set, and
// to GE's default otherwise.
type PrefixRule struct {
	Prefix netaddr.Prefix
	GE, LE int // inclusive length bounds; 0 means "unset"
	Action Action
}

// Matches reports whether p satisfies the rule's prefix condition.
func (r PrefixRule) Matches(p netaddr.Prefix) bool {
	ge, le := r.GE, r.LE
	if ge == 0 {
		ge = r.Prefix.Len()
	}
	if le == 0 {
		if r.GE == 0 {
			le = r.Prefix.Len() // exact match by default
		} else {
			le = r.Prefix.Bits()
		}
	}
	if p.Len() < ge || p.Len() > le {
		return false
	}
	return r.Prefix.Contains(p.Addr()) && p.Len() >= r.Prefix.Len()
}

// PrefixList is an ordered list of prefix rules; the first matching rule
// decides. A prefix matching no rule is denied (the conventional implicit
// deny).
type PrefixList struct {
	Name  string
	Rules []PrefixRule
}

// Eval returns the action of the first matching rule, with ok=false when
// no rule matched.
func (l *PrefixList) Eval(p netaddr.Prefix) (Action, bool) {
	for _, r := range l.Rules {
		if r.Matches(p) {
			return r.Action, true
		}
	}
	return Deny, false
}

// Permits reports whether the list allows the prefix.
func (l *PrefixList) Permits(p netaddr.Prefix) bool {
	a, ok := l.Eval(p)
	return ok && a == Permit
}

// ASPathCond is a predicate over AS paths. The zero value matches
// everything; set fields combine conjunctively.
type ASPathCond struct {
	Contains   []uint32 // path must traverse all of these ASNs
	NotContain []uint32 // path must traverse none of these
	OriginAS   uint32   // last AS must equal (0 = unset)
	NeighborAS uint32   // first AS must equal (0 = unset)
	MinLen     int      // path length lower bound (0 = unset)
	MaxLen     int      // path length upper bound (0 = unset)
	// Pattern, when set, must match the flattened path (see
	// ASPathPattern for the operator-style pattern language).
	Pattern *ASPathPattern
}

// Matches evaluates the predicate.
func (c ASPathCond) Matches(p wire.ASPath) bool {
	for _, a := range c.Contains {
		if !p.Contains(a) {
			return false
		}
	}
	for _, a := range c.NotContain {
		if p.Contains(a) {
			return false
		}
	}
	if c.OriginAS != 0 {
		o, ok := p.Origin()
		if !ok || o != c.OriginAS {
			return false
		}
	}
	if c.NeighborAS != 0 {
		f, ok := p.First()
		if !ok || f != c.NeighborAS {
			return false
		}
	}
	l := p.Length()
	if c.MinLen != 0 && l < c.MinLen {
		return false
	}
	if c.MaxLen != 0 && l > c.MaxLen {
		return false
	}
	if c.Pattern != nil && !c.Pattern.Match(p) {
		return false
	}
	return true
}

// Match is the conjunctive condition of a route-map term. Nil/zero members
// are wildcards.
type Match struct {
	PrefixList *PrefixList
	ASPath     *ASPathCond
	Community  []wire.Community // route must carry all listed communities
	NextHop    *netaddr.Prefix  // next hop must fall inside
	MED        *uint32          // exact MED
}

// Matches evaluates the condition on a route. The attributes are read
// through a pointer and never modified.
func (m *Match) Matches(p netaddr.Prefix, a *wire.PathAttrs) bool {
	if m.PrefixList != nil && !m.PrefixList.Permits(p) {
		return false
	}
	if m.ASPath != nil && !m.ASPath.Matches(a.ASPath) {
		return false
	}
	for _, c := range m.Community {
		if !a.HasCommunity(c) {
			return false
		}
	}
	if m.NextHop != nil && (!a.HasNextHop || !m.NextHop.Contains(a.NextHop)) {
		return false
	}
	if m.MED != nil && (!a.HasMED || a.MED != *m.MED) {
		return false
	}
	return true
}

// Set is the attribute transformation of a route-map term. Nil members
// leave the attribute unchanged.
type Set struct {
	LocalPref      *uint32
	MED            *uint32
	NextHop        *netaddr.Addr
	PrependAS      uint32 // prepend this ASN PrependCount times
	PrependCount   int
	AddCommunity   []wire.Community
	DelCommunity   []wire.Community
	ClearCommunity bool
}

// Apply returns a transformed copy of the attributes.
func (s Set) Apply(a wire.PathAttrs) wire.PathAttrs {
	out := a.Clone()
	if s.LocalPref != nil {
		out.LocalPref, out.HasLocalPref = *s.LocalPref, true
	}
	if s.MED != nil {
		out.MED, out.HasMED = *s.MED, true
	}
	if s.NextHop != nil {
		out.NextHop, out.HasNextHop = *s.NextHop, true
	}
	for i := 0; i < s.PrependCount; i++ {
		out.ASPath = out.ASPath.Prepend(s.PrependAS)
	}
	if s.ClearCommunity {
		out.Communities = nil
	}
	for _, c := range s.DelCommunity {
		for i := 0; i < len(out.Communities); i++ {
			if out.Communities[i] == c {
				out.Communities = append(out.Communities[:i], out.Communities[i+1:]...)
				i--
			}
		}
	}
	for _, c := range s.AddCommunity {
		if !out.HasCommunity(c) {
			out.Communities = append(out.Communities, c)
		}
	}
	return out
}

// Term is one entry of a route map.
type Term struct {
	Name   string
	Match  Match
	Set    Set
	Action Action
}

// RouteMap is an ordered policy: terms are evaluated in sequence and the
// first matching term decides. A route matching no term is denied, unless
// DefaultPermit is set (useful for "modify everything" maps). A map is
// immutable once handed to a router: the router shares it between
// goroutines and memoizes its Transform results.
type RouteMap struct {
	Name          string
	Terms         []Term
	DefaultPermit bool
}

// Decide evaluates the map's conditions on a route: it returns the index
// of the first term whose Match holds, or -1 when none does, and whether
// the route is accepted. A nil map decides (-1, true). Only this choice
// depends on the prefix; what the route leaves with is Transform of the
// choice, a function of the attributes alone, which is what lets a
// caller compute it once per distinct (attributes, term).
func (m *RouteMap) Decide(p netaddr.Prefix, a *wire.PathAttrs) (term int, accept bool) {
	if m == nil {
		return -1, true // no policy: accept unchanged
	}
	for i := range m.Terms {
		t := &m.Terms[i]
		if t.Match.Matches(p, a) {
			return i, t.Action == Permit
		}
	}
	return -1, m.DefaultPermit
}

// Transform returns the attributes as term, a result of m.Decide, leaves
// them: the term's Set applied to a copy for a permit term, a itself for
// a deny term and for -1 (no term matched, which is all a nil map
// decides). It is small enough to inline, so the no-term case costs no
// call.
func (m *RouteMap) Transform(term int, a wire.PathAttrs) wire.PathAttrs {
	if term >= 0 && m.Terms[term].Action == Permit {
		return m.Terms[term].Set.Apply(a)
	}
	return a
}

// Apply evaluates the map on a route, returning the (possibly transformed)
// attributes and whether the route is accepted: Transform of Decide.
func (m *RouteMap) Apply(p netaddr.Prefix, a wire.PathAttrs) (wire.PathAttrs, bool) {
	term, ok := m.Decide(p, &a)
	return m.Transform(term, a), ok
}

// String summarizes the route map for diagnostics.
func (m *RouteMap) String() string {
	if m == nil {
		return "route-map <nil: permit all>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "route-map %s (%d terms", m.Name, len(m.Terms))
	if m.DefaultPermit {
		b.WriteString(", default permit")
	}
	b.WriteString(")")
	return b.String()
}

// AcceptAll is the identity policy.
var AcceptAll = &RouteMap{Name: "accept-all", DefaultPermit: true}

// DenyAll rejects every route.
var DenyAll = &RouteMap{Name: "deny-all"}
